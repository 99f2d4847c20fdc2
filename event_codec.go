package eta2

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// WAL event payloads have one encoding per event type. The cold mutation
// events (add_users, create_tasks, allocate, close_step) are JSON; the
// observation hot path is a compact binary record: ~17 bytes per
// observation versus ~60 of JSON, append-only into a pooled buffer, no
// reflection. The first payload byte says which: JSON events always start
// with '{' (0x7B), binary events with eventBinMagic.
const (
	// eventBinMagic marks a binary WAL event payload.
	eventBinMagic byte = 0xE2
	// eventBinObservations is the binary form of eventObservations.
	eventBinObservations byte = 1
)

// encodeObservationsEvent appends the binary observations event for obs to
// buf and returns the extended slice. day >= 0 stamps every observation
// with that time step (the SubmitObservations path, which stamps batches
// with the current day); day < 0 keeps each observation's own Day (the
// min-cost collector path, which journals collected batches verbatim).
//
// The append-only shape is what makes the hot path zero-alloc: callers
// hand in a pooled buffer with retained capacity and steady-state encoding
// never grows it.
func encodeObservationsEvent(buf []byte, obs []Observation, day int) []byte {
	buf = append(buf, eventBinMagic, eventBinObservations)
	buf = binary.AppendUvarint(buf, uint64(len(obs)))
	for _, o := range obs {
		buf = binary.AppendVarint(buf, int64(o.Task))
		buf = binary.AppendVarint(buf, int64(o.User))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.Value))
		d := o.Day
		if day >= 0 {
			d = day
		}
		buf = binary.AppendVarint(buf, int64(d))
	}
	return buf
}

// decodeEvent decodes one WAL record payload. It is the single decode path
// shared by startup recovery and the replication follower, so both rebuild
// identical events from identical bytes. A JSON observations event (the
// pre-binary encoding) is refused by name rather than decoded.
func decodeEvent(payload []byte) (walEvent, error) {
	if len(payload) > 0 && payload[0] == eventBinMagic {
		return decodeBinaryEvent(payload)
	}
	var ev walEvent
	if err := json.Unmarshal(payload, &ev); err != nil {
		return walEvent{}, err
	}
	if ev.Type == eventObservations {
		return walEvent{}, fmt.Errorf("%w: JSON %q event: this build reads observation events in the binary encoding only", ErrBadState, ev.Type)
	}
	return ev, nil
}

// decodeBinaryEvent decodes a payload written by encodeObservationsEvent.
// Truncated or trailing bytes are errors: a WAL frame's CRC already caught
// torn writes, so a malformed body here means a codec bug, not corruption.
func decodeBinaryEvent(payload []byte) (walEvent, error) {
	if len(payload) < 2 {
		return walEvent{}, fmt.Errorf("binary event truncated at %d bytes", len(payload))
	}
	if kind := payload[1]; kind != eventBinObservations {
		return walEvent{}, fmt.Errorf("unknown binary event kind %d", kind)
	}
	p := payload[2:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return walEvent{}, fmt.Errorf("binary event: bad observation count")
	}
	p = p[n:]
	// 11 bytes is the minimum encoded observation (three 1-byte varints +
	// the 8-byte value); an impossible count fails before allocating.
	if count > uint64(len(p))/11 {
		return walEvent{}, fmt.Errorf("binary event: count %d exceeds payload", count)
	}
	obs := make([]Observation, count)
	for i := range obs {
		var o Observation
		task, n := binary.Varint(p)
		if n <= 0 {
			return walEvent{}, fmt.Errorf("binary event: observation %d: bad task", i)
		}
		p = p[n:]
		user, n := binary.Varint(p)
		if n <= 0 {
			return walEvent{}, fmt.Errorf("binary event: observation %d: bad user", i)
		}
		p = p[n:]
		if len(p) < 8 {
			return walEvent{}, fmt.Errorf("binary event: observation %d: truncated value", i)
		}
		o.Value = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		day, n := binary.Varint(p)
		if n <= 0 {
			return walEvent{}, fmt.Errorf("binary event: observation %d: bad day", i)
		}
		p = p[n:]
		o.Task, o.User, o.Day = TaskID(task), UserID(user), int(day)
		obs[i] = o
	}
	if len(p) != 0 {
		return walEvent{}, fmt.Errorf("binary event: %d trailing bytes", len(p))
	}
	return walEvent{Type: eventObservations, Observations: obs}, nil
}
