package state

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/semantic"
	"eta2/internal/truth"
)

// Binary snapshot codec: the length-prefixed format compaction,
// SaveStateBinary and follower bootstrap write, and the only one recovery,
// LoadServer and a follower bootstrap read.
//
// The framing mirrors internal/wal's record framing: a fixed magic, a
// uvarint codec version, a uvarint body length, the body, and a CRC-32C
// (Castagnoli) of the body. Inside the body every integer is a varint (or
// uvarint for counts), every float64 is its IEEE-754 bit pattern
// little-endian, and every string or slice is length-prefixed. The per-task
// columns are encoded as (task id, value) entries in index order — domain_of
// one per task, truths one per estimated task — so encoding is
// deterministic: the same state always produces the same bytes.
//
//	magic   8 bytes  "ETA2SNAP"
//	version uvarint  snapshotCodecVersion
//	length  uvarint  body length in bytes
//	body    ...      the state version, then State's persistable fields in order
//	crc     4 bytes  little-endian CRC-32C of body
//
// Any version other than snapshotCodecVersion fails with ErrBadState naming
// it — another build's file must not be silently discarded — and so does a
// body whose checksum verifies but whose user, per-task or store sections are
// not what this build writes (naming the section), while a bad magic, truncated
// file, or CRC mismatch is an ordinary decode error, letting recovery fall
// back to an older snapshot.

// snapshotMagic opens every binary snapshot.
const snapshotMagic = "ETA2SNAP"

// snapshotCodecVersion is the one binary framing this build writes and
// reads. Version history:
//
//	1  initial format
//	2  adds the per-user Name string (between Capacity and the next user)
//
// A version-1 directory is upgraded by the last build that read it
// (revision a9c3902): open it there and compact.
const snapshotCodecVersion = 2

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Encode writes st as one binary snapshot. st is a published state (or one
// a decoder built): it is only read.
func (st *State) Encode(w io.Writer) error {
	e := &snapEncoder{}
	e.uvarint(stateVersion)
	e.f64(st.alpha)
	e.f64(st.gamma)
	e.f64(st.epsilon)

	e.users(st.users)

	e.uvarint(uint64(len(st.tasks)))
	for _, t := range st.tasks {
		e.varint(int64(t.ID))
		e.str(t.Description)
		e.varint(int64(t.Domain))
		e.f64(t.ProcTime)
		e.f64(t.Cost)
		e.varint(int64(t.Day))
		e.f64(t.Truth)
		e.f64(t.Base)
	}

	e.uvarint(uint64(len(st.domainOf)))
	for tid, dom := range st.domainOf {
		e.varint(int64(tid))
		e.varint(int64(dom))
	}

	e.uvarint(uint64(len(st.pending)))
	for _, id := range st.pending {
		e.varint(int64(id))
	}

	estimated := 0
	for _, t := range st.truths {
		if t.Observations > 0 {
			estimated++
		}
	}
	e.uvarint(uint64(estimated))
	for tid, t := range st.truths {
		if t.Observations > 0 {
			e.varint(int64(tid))
			e.f64(t.Value)
			e.f64(t.Base)
			e.varint(int64(t.Observations))
		}
	}

	e.varint(int64(st.day))

	e.observations(st.observations)

	store := st.store.State()
	e.f64(store.Alpha)
	e.f64(store.Prior)
	e.uvarint(uint64(len(store.Entries)))
	for _, en := range store.Entries {
		e.varint(int64(en.User))
		e.varint(int64(en.Domain))
		e.f64(en.N)
		e.f64(en.D)
	}

	// Clustering: the engine, then the vector and the task of every item.
	// Without clustering that is a zero byte and two empty lists.
	var ds loop.DomainsState
	if st.cluster == nil {
		e.buf = append(e.buf, 0)
	} else {
		e.buf = append(e.buf, 1)
		ds = *st.cluster
		c := ds.Cluster
		e.f64(c.Gamma)
		e.f64(c.DStar)
		e.varint(int64(c.NItems))
		e.varint(int64(c.NextDomain))
		e.uvarint(uint64(len(c.Domains)))
		for _, d := range c.Domains {
			e.varint(int64(d))
		}
		e.uvarint(uint64(len(c.Members)))
		for _, m := range c.Members {
			e.uvarint(uint64(len(m)))
			for _, it := range m {
				e.varint(int64(it))
			}
		}
		e.uvarint(uint64(len(c.DMat)))
		for _, row := range c.DMat {
			e.uvarint(uint64(len(row)))
			for _, v := range row {
				e.f64(v)
			}
		}
		e.uvarint(uint64(len(c.ItemSlot)))
		for _, s := range c.ItemSlot {
			e.varint(int64(s))
		}
	}
	e.uvarint(uint64(len(ds.Vectors)))
	for _, v := range ds.Vectors {
		e.floats(v.Query)
		e.floats(v.Target)
	}
	e.uvarint(uint64(len(ds.Tasks)))
	for _, id := range ds.Tasks {
		e.varint(int64(id))
	}

	var head []byte
	head = append(head, snapshotMagic...)
	head = binary.AppendUvarint(head, snapshotCodecVersion)
	head = binary.AppendUvarint(head, uint64(len(e.buf)))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("eta2: save state: %w", err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("eta2: save state: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(e.buf, snapshotCRCTable))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("eta2: save state: %w", err)
	}
	mSnapshotBytesBinary.Observe(float64(len(head) + len(e.buf) + 4))
	return nil
}

// Decode parses a binary snapshot incrementally: the body is
// decoded as it streams through a CRC-accumulating reader, so recovery
// memory is bounded by the decoded state, never state plus file, and every
// length prefix is checked against the bytes left before anything is
// allocated for it. The parsed state — every section held to what Restore
// and the writers go on to assume of it — is surrendered to the caller only after the
// trailing checksum verifies — a corrupt body can waste transient work but
// never escape as a successfully loaded state.
func Decode(r io.Reader) (State, error) {
	fail := func(err error) (State, error) {
		return State{}, fmt.Errorf("eta2: load state: %w", err)
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	var magic [len(snapshotMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fail(fmt.Errorf("bad snapshot magic"))
	}
	if string(magic[:]) != snapshotMagic {
		return fail(fmt.Errorf("bad snapshot magic"))
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fail(fmt.Errorf("truncated snapshot header"))
	}
	if version != snapshotCodecVersion {
		return State{}, fmt.Errorf("%w: snapshot uses binary codec version %d, but this build reads only version %d",
			ErrBadState, version, snapshotCodecVersion)
	}
	bodyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return fail(fmt.Errorf("truncated snapshot header"))
	}

	d := &snapDecoder{r: br, remaining: bodyLen}
	st := empty()
	// bad is the first section that is well-formed bytes but not a column or a
	// store table this build writes. It is reported only after the checksum has
	// vouched for those bytes: a bit flip must stay a plain decode error.
	var bad error
	refuse := func(section, format string, args ...any) {
		if bad == nil && d.err == nil {
			bad = fmt.Errorf("%w: snapshot section %s: %s", ErrBadState, section, fmt.Sprintf(format, args...))
		}
	}
	if v := d.uvarint(); d.err == nil && v != stateVersion {
		return State{}, fmt.Errorf("%w: snapshot has version %d, but this build supports version %d",
			ErrBadState, v, stateVersion)
	}
	st.alpha = d.f64()
	st.gamma = d.f64()
	st.epsilon = d.f64()

	// The user column and its indexes, held to what AddUsers would have let
	// in: every id once, every name on one id.
	if n := d.count(10); n > 0 { // varint id, float capacity, name length
		st.users = make([]core.User, n)
		for i := range st.users {
			u := core.User{ID: core.UserID(d.varint()), Capacity: d.f64(), Name: d.str()}
			st.users[i] = u
			if err := u.Validate(); err != nil {
				refuse("users", "%v", err)
			}
			if _, dup := st.userPos[u.ID]; dup {
				refuse("users", "user %d listed twice", u.ID)
			}
			st.userPos[u.ID] = int32(i)
			st.nextUserID = max(st.nextUserID, u.ID+1)
			if u.Name == "" {
				continue
			}
			if _, dup := st.userByName[u.Name]; dup {
				refuse("users", "name %q bound to two users", u.Name)
			}
			st.userByName[u.Name] = u.ID
			st.nameBytes += int64(len(u.Name))
		}
	}

	if n := d.count(36); n > 0 { // three varints, a string length, four floats
		st.tasks = make([]core.Task, n)
		for i := range st.tasks {
			st.tasks[i] = core.Task{
				ID:          core.TaskID(d.varint()),
				Description: d.str(),
				Domain:      core.DomainID(d.varint()),
				ProcTime:    d.f64(),
				Cost:        d.f64(),
				Day:         int(d.varint()),
				Truth:       d.f64(),
				Base:        d.f64(),
			}
			// Everything downstream indexes the columns by a task's ID.
			if id := st.tasks[i].ID; int(id) != i {
				refuse("tasks", "entry %d holds task %d, want task ids 0..%d in order", i, id, n-1)
			}
		}
	}

	// One entry per task, ids 0..len(tasks)-1 in order: the column's index.
	if n := d.count(2); n > 0 {
		st.domainOf = make([]DomainID, n)
		for i := range st.domainOf {
			if tid := d.varint(); tid != int64(i) {
				refuse("domain_of", "entry %d is for task %d, want task ids 0..%d in order", i, tid, n-1)
			}
			st.domainOf[i] = DomainID(d.varint())
		}
	}
	if len(st.domainOf) != len(st.tasks) {
		refuse("domain_of", "%d entries for %d tasks", len(st.domainOf), len(st.tasks))
	}

	if n := d.count(1); n > 0 {
		st.pending = make([]TaskID, n)
		listed := make([]bool, len(st.tasks))
		for i := range st.pending {
			id := TaskID(d.varint())
			st.pending[i] = id
			switch {
			case int(id) < 0 || int(id) >= len(st.tasks):
				refuse("pending", "task %d is pending, but the snapshot holds %d tasks", id, len(st.tasks))
			case listed[id]:
				refuse("pending", "task %d listed twice", id)
			default:
				listed[id] = true
			}
		}
	}

	// Two varints and two floats each.
	if n := d.count(18); n > 0 {
		st.truths = make([]TruthEstimate, len(st.tasks))
		for i := 0; i < n; i++ {
			t := TruthEstimate{
				Task:         TaskID(d.varint()),
				Value:        d.f64(),
				Base:         d.f64(),
				Observations: int(d.varint()),
			}
			switch {
			case int(t.Task) < 0 || int(t.Task) >= len(st.tasks):
				refuse("truths", "estimate for task %d, but the snapshot holds %d tasks", t.Task, len(st.tasks))
			case t.Observations <= 0:
				refuse("truths", "estimate for task %d backed by %d observations", t.Task, t.Observations)
			default:
				st.truths[t.Task] = t
			}
		}
	}

	st.day = int(d.varint())

	if n := d.count(11); n > 0 { // three varints, one float
		st.observations = make([]Observation, n)
		for i := range st.observations {
			st.observations[i] = Observation{
				Task:  core.TaskID(d.varint()),
				User:  core.UserID(d.varint()),
				Value: d.f64(),
				Day:   int(d.varint()),
			}
			// The close that estimates it indexes the columns by its task.
			if tid := st.observations[i].Task; int(tid) < 0 || int(tid) >= len(st.tasks) {
				refuse("observations", "observation for task %d, but the snapshot holds %d tasks", tid, len(st.tasks))
			}
		}
	}

	store := truth.StoreState{Alpha: d.f64(), Prior: d.f64()}
	if n := d.count(18); n > 0 { // two varints, two floats
		store.Entries = make([]truth.StoreEntry, n)
		for i := range store.Entries {
			store.Entries[i] = truth.StoreEntry{
				User:   core.UserID(d.varint()),
				Domain: core.DomainID(d.varint()),
				N:      d.f64(),
				D:      d.f64(),
			}
		}
	}
	if st.store, err = truth.RestoreStore(store); err != nil {
		refuse("store", "%v", err)
	}

	// The vectors and task ids of the clustered items follow the engine; a
	// snapshot without clustering state holds none of either.
	var ds loop.DomainsState
	if d.byte() == 1 {
		st.cluster = &ds
		c := &ds.Cluster
		c.Gamma = d.f64()
		c.DStar = d.f64()
		c.NItems = int(d.varint())
		c.NextDomain = core.DomainID(d.varint())
		if n := d.count(1); n > 0 {
			c.Domains = make([]core.DomainID, n)
			for i := range c.Domains {
				c.Domains[i] = core.DomainID(d.varint())
			}
		}
		if n := d.count(1); n > 0 {
			c.Members = make([][]int, n)
			for i := range c.Members {
				if m := d.count(1); m > 0 {
					c.Members[i] = make([]int, m)
					for j := range c.Members[i] {
						c.Members[i][j] = int(d.varint())
					}
				}
			}
		}
		if n := d.count(1); n > 0 {
			c.DMat = make([][]float64, n)
			for i := range c.DMat {
				c.DMat[i] = d.floats()
			}
		}
		if n := d.count(1); n > 0 {
			c.ItemSlot = make([]int, n)
			for i := range c.ItemSlot {
				c.ItemSlot[i] = int(d.varint())
			}
		}
	}
	if n := d.count(2); n > 0 { // two float-slice lengths
		ds.Vectors = make([]semantic.TaskVector, n)
		for i := range ds.Vectors {
			ds.Vectors[i] = semantic.TaskVector{Query: d.floats(), Target: d.floats()}
		}
	}
	if n := d.count(1); n > 0 {
		ds.Tasks = make([]TaskID, n)
		for i := range ds.Tasks {
			ds.Tasks[i] = TaskID(d.varint())
		}
	}

	if d.err != nil {
		return fail(d.err)
	}
	if d.remaining != 0 {
		return fail(fmt.Errorf("%d unconsumed bytes in snapshot body", d.remaining))
	}
	// Body fully consumed: verify the trailing checksum against the CRC
	// accumulated while streaming, then insist the stream ends.
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return fail(fmt.Errorf("truncated snapshot: missing checksum"))
	}
	if want := binary.LittleEndian.Uint32(tail[:]); d.crc != want {
		return fail(fmt.Errorf("snapshot checksum mismatch: computed %08x, stored %08x", d.crc, want))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fail(fmt.Errorf("trailing garbage after snapshot checksum"))
	}
	if bad != nil {
		return State{}, bad
	}
	return st, nil
}

// snapEncoder appends primitives to a growing buffer.
type snapEncoder struct{ buf []byte }

func (e *snapEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *snapEncoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *snapEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *snapEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *snapEncoder) floats(v []float64) {
	e.uvarint(uint64(len(v)))
	for _, f := range v {
		e.f64(f)
	}
}

// users writes a user column: the snapshot's users section and the body of
// an add_users journal record.
func (e *snapEncoder) users(users []User) {
	e.uvarint(uint64(len(users)))
	for _, u := range users {
		e.varint(int64(u.ID))
		e.f64(u.Capacity)
		e.str(u.Name)
	}
}

// observations writes observations with their own day stamps: the snapshot's
// observations section and the body of an observations journal record.
func (e *snapEncoder) observations(obs []Observation) {
	e.uvarint(uint64(len(obs)))
	for _, o := range obs {
		e.varint(int64(o.Task))
		e.varint(int64(o.User))
		e.f64(o.Value)
		e.varint(int64(o.Day))
	}
}

// snapDecoder consumes primitives from a stream, accumulating the body
// CRC as bytes pass through, bounding reads by the declared body length,
// and latching the first error: after a failure every read returns zero
// values, and the caller checks err once at the end.
type snapDecoder struct {
	r         *bufio.Reader
	remaining uint64 // body bytes not yet consumed
	crc       uint32 // CRC-32C of the body bytes consumed so far
	err       error
	scratch   [8]byte
}

func (d *snapDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("corrupt snapshot body: %s", msg)
	}
}

// read consumes exactly len(p) body bytes into p, folding them into the
// running CRC.
func (d *snapDecoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if uint64(len(p)) > d.remaining {
		d.fail("truncated body")
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail("truncated body")
		return
	}
	d.remaining -= uint64(len(p))
	d.crc = crc32.Update(d.crc, snapshotCRCTable, p)
}

func (d *snapDecoder) byte() byte {
	d.read(d.scratch[:1])
	if d.err != nil {
		return 0
	}
	return d.scratch[0]
}

func (d *snapDecoder) uvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b := d.byte()
		if d.err != nil {
			return 0
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				d.fail("bad uvarint")
				return 0
			}
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	d.fail("bad uvarint")
	return 0
}

func (d *snapDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// count reads the length prefix of a section whose elements each encode to
// at least elemSize bytes, and rejects a length the bytes left cannot hold:
// what a corrupt prefix can make the caller allocate stays proportional to
// the snapshot's size, and recovery falls back to an older snapshot instead
// of dying of memory before the trailing checksum is ever reached.
func (d *snapDecoder) count(elemSize int) int {
	v := d.uvarint()
	if d.err == nil && v > d.remaining/uint64(elemSize) {
		d.fail("length prefix exceeds remaining bytes")
		return 0
	}
	return int(v)
}

func (d *snapDecoder) f64() float64 {
	d.read(d.scratch[:8])
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.scratch[:8]))
}

func (d *snapDecoder) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	d.read(b)
	if d.err != nil {
		return ""
	}
	return bytesString(b)
}

// bytesString is the snapshot and journal record decoders' one copy of bytes
// into a string.
func bytesString(b []byte) string {
	return string(b) //eta2:allocdiscipline-ok restore, replay and follower apply decode names and descriptions, not per-request
}

func (d *snapDecoder) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
