package state

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Every WAL payload is one binary journal record, 0xE2 <kind> <body>, written
// with the snapshot codec's primitives (codec.go): varints for integers,
// uvarint counts, a float64 as its IEEE-754 bits little-endian, strings
// length-prefixed. The users and observations bodies are the snapshot's users
// and observations sections, written by the same methods.
//
//	kind  event         body
//	1     observations  count, then per observation task, user, value, day
//	2     add_users     count, then per user id, capacity, name
//	3     create_tasks  count, then per spec description, proc time, cost, domain hint
//	4     allocate      count, then per pair user, task
//	5     close_step    empty
//
// Encoding is append-only into a caller's buffer, which is what keeps the
// submit hot path zero-alloc: it hands in a pooled buffer with retained
// capacity, and steady-state encoding never grows it.
const eventMagic byte = 0xE2

// EventKind is a journal record's kind byte.
type EventKind byte

const (
	EventObservations EventKind = 1 + iota
	EventAddUsers
	EventCreateTasks
	EventAllocate
	EventCloseStep
)

var eventNames = map[EventKind]string{EventObservations: "observations", EventAddUsers: "add_users",
	EventCreateTasks: "create_tasks", EventAllocate: "allocate", EventCloseStep: "close_step"}

func (k EventKind) String() string { return eventNames[k] }

// Event is one journal record. Only the field of its kind is set.
type Event struct {
	Kind         EventKind
	Users        []User
	Specs        []TaskSpec
	Pairs        []Pair
	Observations []Observation
}

// EncodeEvent appends ev's journal record to buf.
func EncodeEvent(buf []byte, ev Event) []byte {
	e := snapEncoder{buf: append(buf, eventMagic, byte(ev.Kind))}
	switch ev.Kind {
	case EventObservations:
		e.observations(ev.Observations)
	case EventAddUsers:
		e.users(ev.Users)
	case EventCreateTasks:
		e.uvarint(uint64(len(ev.Specs)))
		for _, sp := range ev.Specs {
			e.str(sp.Description)
			e.f64(sp.ProcTime)
			e.f64(sp.Cost)
			e.varint(int64(sp.DomainHint))
		}
	case EventAllocate:
		e.uvarint(uint64(len(ev.Pairs)))
		for _, p := range ev.Pairs {
			e.varint(int64(p.User))
			e.varint(int64(p.Task))
		}
	}
	return e.buf
}

// DecodeEvent decodes one WAL record payload. It is the single decode path
// shared by startup recovery and the replication follower, so both rebuild
// identical events from identical bytes. Truncated or trailing bytes are
// errors: a WAL frame's CRC already caught torn writes, so a malformed body
// means a codec bug, not corruption. A JSON record, which older builds wrote
// for every kind but observations, is refused by name.
func DecodeEvent(payload []byte) (Event, error) {
	if len(payload) > 0 && payload[0] == '{' {
		return Event{}, fmt.Errorf("%w: a JSON record, which this build does not read: open the data directory with the last build that writes them (revision 065eab1) and POST /v1/admin/compact, then restart on this build", ErrBadState)
	}
	if len(payload) < 2 || payload[0] != eventMagic {
		return Event{}, fmt.Errorf("not a journal record: % x", payload[:min(len(payload), 2)])
	}
	r := recordReader{p: payload[2:]}
	ev := Event{Kind: EventKind(payload[1])}
	switch ev.Kind {
	case EventObservations:
		ev.Observations = make([]Observation, r.count(11)) // three varints, one float
		for i := range ev.Observations {
			ev.Observations[i] = Observation{Task: TaskID(r.varint()), User: UserID(r.varint()), Value: r.f64(), Day: int(r.varint())}
		}
	case EventAddUsers:
		ev.Users = make([]User, r.count(10)) // a varint, a float, a name length
		for i := range ev.Users {
			ev.Users[i] = User{ID: UserID(r.varint()), Capacity: r.f64(), Name: r.str()}
		}
	case EventCreateTasks:
		ev.Specs = make([]TaskSpec, r.count(18)) // a description length, two floats, a varint
		for i := range ev.Specs {
			ev.Specs[i] = TaskSpec{Description: r.str(), ProcTime: r.f64(), Cost: r.f64(), DomainHint: DomainID(r.varint())}
		}
	case EventAllocate:
		ev.Pairs = make([]Pair, r.count(2))
		for i := range ev.Pairs {
			ev.Pairs[i] = Pair{User: UserID(r.varint()), Task: TaskID(r.varint())}
		}
	case EventCloseStep:
	default:
		return Event{}, fmt.Errorf("unknown journal record kind %d", payload[1])
	}
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.p))
	}
	if r.err != nil {
		return Event{}, fmt.Errorf("%s record: %w", ev.Kind, r.err)
	}
	return ev, nil
}

// recordReader consumes the primitives snapEncoder writes from one record's
// bytes, latching the first error: after a failure every read returns zero
// values, and the caller checks err once at the end.
type recordReader struct {
	p   []byte
	err error
}

func (r *recordReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated or malformed %s", what)
	}
}

func (r *recordReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *recordReader) varint() int64 {
	ux := r.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (r *recordReader) f64() float64 {
	if len(r.p) < 8 {
		r.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

// count reads the length prefix of a list whose elements each encode to at
// least elemSize bytes, and rejects one the bytes left cannot hold, so an
// impossible count fails before anything is allocated for it.
func (r *recordReader) count(elemSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.p)/elemSize) {
		r.fail("count")
		return 0
	}
	return int(n)
}

func (r *recordReader) str() string {
	n := r.count(1)
	s := bytesString(r.p[:n])
	r.p = r.p[n:]
	return s
}
