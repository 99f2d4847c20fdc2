package eta2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"eta2/internal/core"
	"eta2/internal/state"
	"eta2/internal/truth"
)

// The snapshot format as these tests read it, apart from the codec's own
// primitives: its framing constants, and a writer and a reader of the
// primitives of its body.
const (
	snapshotMagic        = "ETA2SNAP"
	snapshotCodecVersion = 2
	stateVersion         = 1
)

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

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

// snapReader reads body primitives off p, latching the first error.
type snapReader struct {
	p   []byte
	err error
}

func (d *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("bad varint at %d bytes from the end", len(d.p))
		d.p = nil
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *snapReader) varint() int64 {
	ux := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (d *snapReader) count(int) int { return int(d.uvarint()) }

func (d *snapReader) f64() float64 {
	if len(d.p) < 8 {
		d.err, d.p = fmt.Errorf("truncated float"), nil
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

func (d *snapReader) str() string {
	n := d.count(1)
	if n > len(d.p) {
		d.err, d.p = fmt.Errorf("truncated string"), nil
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// richServer builds an in-memory server with every persistable feature
// populated: users, described (clustered) tasks, hinted tasks, buffered
// and folded observations, allocations, and multiple closed steps.
func richServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(WithEmbedder(rootTestEmbedder(t)), WithAlpha(0.7), WithGamma(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range durableScript(t) {
		if err := op(s); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return s
}

// TestBinaryCodecRoundTrip checks that decode inverts encode: a server
// restored from its snapshot saves the bit-identical snapshot, and answers
// the query surface as the original does.
func TestBinaryCodecRoundTrip(t *testing.T) {
	s := richServer(t)
	want := saveBytes(t, s)

	r, err := LoadServer(bytes.NewReader(want), WithEmbedder(rootTestEmbedder(t)))
	if err != nil {
		t.Fatalf("LoadServer(binary): %v", err)
	}
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Errorf("binary round trip diverged (%d vs %d bytes)", len(got), len(want))
	}
	for id := TaskID(-1); int(id) <= s.st.Load().Counts().Tasks; id++ {
		gotEst, gotOK := r.Truth(id)
		wantEst, wantOK := s.Truth(id)
		if gotEst != wantEst || gotOK != wantOK || r.Domain(id) != s.Domain(id) {
			t.Errorf("task %d: restored truth %+v/%v domain %d, original %+v/%v domain %d",
				id, gotEst, gotOK, r.Domain(id), wantEst, wantOK, s.Domain(id))
		}
	}

	// The restored server must stay fully usable.
	if _, err := r.CreateTasks(TaskSpec{Description: "What is the noise level around the train station?", ProcTime: 1}); err != nil {
		t.Fatalf("restored server cannot create tasks: %v", err)
	}
}

// TestBinaryCodecDeterministic: identical state must encode to identical
// bytes (the per-task columns are serialized in index order).
func TestBinaryCodecDeterministic(t *testing.T) {
	s := richServer(t)
	var a, b bytes.Buffer
	if err := s.SaveStateBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveStateBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two binary encodings of the same state differ")
	}
}

// TestBinaryCodecCorruption flips every byte of a binary snapshot in turn
// and truncates it at several lengths: decoding must fail with a plain
// error (recovery falls back to an older snapshot), never ErrBadState
// (which recovery treats as fatal) and never a panic or silent success.
// ErrBadState is for the table that follows: intact files that are not
// what this build writes.
func TestBinaryCodecCorruption(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for i := range good {
		mut := bytes.Clone(good)
		mut[i] ^= 0xff
		if _, err := LoadServer(bytes.NewReader(mut)); err == nil {
			// A flip inside the varint-coded header lengths can still
			// produce a structurally valid file only if the CRC also
			// matches — astronomically unlikely, so any success is a bug.
			t.Fatalf("byte %d flipped: decode succeeded on corrupt snapshot", i)
		}
	}
	for _, cut := range []int{0, 1, len(snapshotMagic), len(good) / 2, len(good) - 1} {
		if _, err := LoadServer(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d bytes: decode succeeded", cut)
		}
	}

	// Files whose every byte the checksum vouches for, but whose per-task
	// sections are not columns, or whose store is not a table, this build
	// writes: ErrBadState, naming the section — another build's or a buggy
	// writer's file, not a torn one.
	four, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := four.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := four.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 2, ProcTime: 1}, TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := four.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}, Observation{Task: 0, User: 1, Value: 2.5},
		Observation{Task: 2, User: 0, Value: 3.5}, Observation{Task: 2, User: 1, Value: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := four.CloseTimeStep(); err != nil {
		t.Fatal(err)
	}
	if _, err := four.CreateTasks(TaskSpec{DomainHint: 2, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := four.SubmitObservations(Observation{Task: 3, User: 1, Value: 4}); err != nil {
		t.Fatal(err)
	}
	valid := splitCheckedSections(t, saveBytes(t, four))
	if len(valid.domainOf) != 4 || len(valid.truths) != 2 || len(valid.observations) != 1 || len(valid.store.Entries) != 2 {
		t.Fatalf("fixture: %d domain_of entries, %d truths, %d observations, %d store entries",
			len(valid.domainOf), len(valid.truths), len(valid.observations), len(valid.store.Entries))
	}
	if _, err := LoadServer(bytes.NewReader(valid.file())); err != nil {
		t.Fatalf("re-encoding the valid sections unchanged: %v", err)
	}
	for _, tc := range []struct {
		name, section string
		mutate        func(*checkedSections)
	}{
		{"gap in domain_of", "domain_of", func(p *checkedSections) { p.domainOf = append(p.domainOf[:2:2], p.domainOf[3]) }},
		{"duplicate id in domain_of", "domain_of", func(p *checkedSections) { p.domainOf[2][0] = 1 }},
		{"out-of-order ids in domain_of", "domain_of", func(p *checkedSections) { p.domainOf[0], p.domainOf[1] = p.domainOf[1], p.domainOf[0] }},
		{"out-of-range id in domain_of", "domain_of", func(p *checkedSections) { p.domainOf[3][0] = 9 }},
		{"negative id in domain_of", "domain_of", func(p *checkedSections) { p.domainOf[0][0] = -1 }},
		{"domain_of longer than tasks", "domain_of", func(p *checkedSections) { p.domainOf = append(p.domainOf, [2]int64{4, 1}) }},
		{"duplicate id in users", "users", func(p *checkedSections) { p.users[1].ID = p.users[0].ID }},
		{"negative id in users", "users", func(p *checkedSections) { p.users[0].ID = -1 }},
		{"negative capacity in users", "users", func(p *checkedSections) { p.users[1].Capacity = -5 }},
		{"NaN capacity in users", "users", func(p *checkedSections) { p.users[0].Capacity = math.NaN() }},
		{"infinite capacity in users", "users", func(p *checkedSections) { p.users[1].Capacity = math.Inf(1) }},
		{"one name on two ids in users", "users", func(p *checkedSections) { p.users[0].Name, p.users[1].Name = "ann", "ann" }},
		{"task whose id is not its position", "tasks", func(p *checkedSections) { p.tasks[1].ID = 2 }},
		{"tasks out of order", "tasks", func(p *checkedSections) { p.tasks[0], p.tasks[3] = p.tasks[3], p.tasks[0] }},
		{"negative task id", "tasks", func(p *checkedSections) { p.tasks[0].ID = -1 }},
		{"pending id past the tasks", "pending", func(p *checkedSections) { p.pending = []int64{0, 99} }},
		{"negative pending id", "pending", func(p *checkedSections) { p.pending[0] = -1 }},
		{"pending id listed twice", "pending", func(p *checkedSections) { p.pending = append(p.pending, p.pending[0]) }},
		{"truth for an unknown task", "truths", func(p *checkedSections) { p.truths[1].Task = 4 }},
		{"truth for a negative task", "truths", func(p *checkedSections) { p.truths[0].Task = -1 }},
		{"truth backed by no observation", "truths", func(p *checkedSections) { p.truths[0].Observations = 0 }},
		{"truth backed by a negative count", "truths", func(p *checkedSections) { p.truths[1].Observations = -3 }},
		{"pending observation for an unknown task", "observations", func(p *checkedSections) { p.observations[0].Task = 4 }},
		{"duplicate pair in store", "store", func(p *checkedSections) { p.store.Entries[1].User = p.store.Entries[0].User }},
		{"out-of-order users in store", "store", func(p *checkedSections) {
			p.store.Entries[0], p.store.Entries[1] = p.store.Entries[1], p.store.Entries[0]
		}},
		{"out-of-order domains in store", "store", func(p *checkedSections) {
			p.store.Entries[1].User, p.store.Entries[0].Domain = p.store.Entries[0].User, p.store.Entries[1].Domain+1
		}},
		{"negative N in store", "store", func(p *checkedSections) { p.store.Entries[0].N = -1 }},
		{"negative D in store", "store", func(p *checkedSections) { p.store.Entries[1].D = -0.5 }},
		{"NaN N in store", "store", func(p *checkedSections) { p.store.Entries[1].N = math.NaN() }},
		{"NaN D in store", "store", func(p *checkedSections) { p.store.Entries[0].D = math.NaN() }},
		{"store alpha above 1", "store", func(p *checkedSections) { p.store.Alpha = 1.5 }},
		{"negative store alpha", "store", func(p *checkedSections) { p.store.Alpha = -0.1 }},
		{"NaN store alpha", "store", func(p *checkedSections) { p.store.Alpha = math.NaN() }},
		{"negative store prior", "store", func(p *checkedSections) { p.store.Prior = -1 }},
	} {
		mut := valid.clone()
		tc.mutate(&mut)
		_, err := LoadServer(bytes.NewReader(mut.file()))
		if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "section "+tc.section) {
			t.Errorf("%s: err = %v, want ErrBadState naming section %s", tc.name, err, tc.section)
		}
		// The same body under a wrong checksum is a torn file, not a refusal.
		torn := mut.file()
		torn[len(torn)-1] ^= 0x01
		if _, err := LoadServer(bytes.NewReader(torn)); err == nil || errors.Is(err, ErrBadState) {
			t.Errorf("%s under a wrong checksum: err = %v, want a plain decode error", tc.name, err)
		}
	}
}

// checkedSections is a snapshot body cut around the sections the decoder
// holds to what this build writes — the user column, the tasks and what is
// indexed by their ids (domain_of, pending, truths, day, observations), and
// the store that follows them — with those decoded into the entries the file
// carries, so a test can re-encode a body no encoder of this build would write.
type checkedSections struct {
	head, tail   []byte
	users        []User
	tasks        []core.Task
	domainOf     [][2]int64 // (task id, domain)
	pending      []int64
	truths       []TruthEstimate
	day          int64
	observations []Observation
	store        truth.StoreState
}

func splitCheckedSections(t testing.TB, file []byte) checkedSections {
	t.Helper()
	_, n1 := binary.Uvarint(file[len(snapshotMagic):])
	bodyLen, n2 := binary.Uvarint(file[len(snapshotMagic)+n1:])
	body := file[len(snapshotMagic)+n1+n2:][:bodyLen]
	d := &snapReader{p: body}
	at := func() int { return len(body) - len(d.p) }

	d.uvarint() // state version
	d.f64()
	d.f64()
	d.f64()
	p := checkedSections{head: body[:at()]}
	for i, n := 0, d.count(10); i < n; i++ {
		p.users = append(p.users, User{ID: UserID(d.varint()), Capacity: d.f64(), Name: d.str()})
	}
	for i, n := 0, d.count(36); i < n; i++ {
		p.tasks = append(p.tasks, core.Task{ID: TaskID(d.varint()), Description: d.str(), Domain: DomainID(d.varint()),
			ProcTime: d.f64(), Cost: d.f64(), Day: int(d.varint()), Truth: d.f64(), Base: d.f64()})
	}
	for i, n := 0, d.count(2); i < n; i++ {
		p.domainOf = append(p.domainOf, [2]int64{d.varint(), d.varint()})
	}
	for i, n := 0, d.count(1); i < n; i++ {
		p.pending = append(p.pending, d.varint())
	}
	for i, n := 0, d.count(18); i < n; i++ {
		p.truths = append(p.truths, TruthEstimate{Task: TaskID(d.varint()), Value: d.f64(), Base: d.f64(), Observations: int(d.varint())})
	}
	p.day = d.varint()
	for i, n := 0, d.count(11); i < n; i++ {
		p.observations = append(p.observations, Observation{Task: TaskID(d.varint()), User: UserID(d.varint()), Value: d.f64(), Day: int(d.varint())})
	}
	p.store.Alpha, p.store.Prior = d.f64(), d.f64()
	for i, n := 0, d.count(18); i < n; i++ {
		p.store.Entries = append(p.store.Entries, truth.StoreEntry{User: UserID(d.varint()), Domain: DomainID(d.varint()), N: d.f64(), D: d.f64()})
	}
	p.tail = body[at():]
	if d.err != nil {
		t.Fatal(d.err)
	}
	if !bytes.Equal(p.file(), file) {
		t.Fatal("splitting a snapshot around its per-task sections and re-encoding them does not reproduce it")
	}
	return p
}

func (p checkedSections) clone() checkedSections {
	p.users, p.tasks, p.pending = slices.Clone(p.users), slices.Clone(p.tasks), slices.Clone(p.pending)
	p.domainOf, p.truths, p.observations = slices.Clone(p.domainOf), slices.Clone(p.truths), slices.Clone(p.observations)
	p.store.Entries = slices.Clone(p.store.Entries)
	return p
}

// file re-encodes the body and frames it with a correct length and checksum.
func (p checkedSections) file() []byte {
	e := &snapEncoder{buf: bytes.Clone(p.head)}
	e.uvarint(uint64(len(p.users)))
	for _, u := range p.users {
		e.varint(int64(u.ID))
		e.f64(u.Capacity)
		e.str(u.Name)
	}
	e.uvarint(uint64(len(p.tasks)))
	for _, t := range p.tasks {
		e.varint(int64(t.ID))
		e.str(t.Description)
		e.varint(int64(t.Domain))
		e.f64(t.ProcTime)
		e.f64(t.Cost)
		e.varint(int64(t.Day))
		e.f64(t.Truth)
		e.f64(t.Base)
	}
	e.uvarint(uint64(len(p.domainOf)))
	for _, en := range p.domainOf {
		e.varint(en[0])
		e.varint(en[1])
	}
	e.uvarint(uint64(len(p.pending)))
	for _, id := range p.pending {
		e.varint(id)
	}
	e.uvarint(uint64(len(p.truths)))
	for _, tr := range p.truths {
		e.varint(int64(tr.Task))
		e.f64(tr.Value)
		e.f64(tr.Base)
		e.varint(int64(tr.Observations))
	}
	e.varint(p.day)
	e.uvarint(uint64(len(p.observations)))
	for _, o := range p.observations {
		e.varint(int64(o.Task))
		e.varint(int64(o.User))
		e.f64(o.Value)
		e.varint(int64(o.Day))
	}
	e.f64(p.store.Alpha)
	e.f64(p.store.Prior)
	e.uvarint(uint64(len(p.store.Entries)))
	for _, en := range p.store.Entries {
		e.varint(int64(en.User))
		e.varint(int64(en.Domain))
		e.f64(en.N)
		e.f64(en.D)
	}
	e.buf = append(e.buf, p.tail...)
	file := append([]byte(snapshotMagic), binary.AppendUvarint(nil, snapshotCodecVersion)...)
	file = binary.AppendUvarint(file, uint64(len(e.buf)))
	file = append(file, e.buf...)
	return binary.LittleEndian.AppendUint32(file, crc32.Checksum(e.buf, snapshotCRCTable))
}

// TestBinaryCodecCorruptLengthPrefix rewrites the task-count prefix of a
// real snapshot to the largest value "one byte per element" would let
// through — the rest of the body — and reframes it with a valid length, so
// the only thing wrong with the file is that prefix. Decoding must fail on
// the prefix itself, having allocated in proportion to the snapshot: the
// checksum that would expose the corruption sits behind the body, and
// recovery has to live to fall back to the older snapshot.
func TestBinaryCodecCorruptLengthPrefix(t *testing.T) {
	s := richServer(t)
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	_, n1 := binary.Uvarint(good[len(snapshotMagic):])
	bodyLen, n2 := binary.Uvarint(good[len(snapshotMagic)+n1:])
	body := good[len(snapshotMagic)+n1+n2:][:bodyLen]

	// Re-encode the sections ahead of the tasks to find their count prefix.
	sections := splitCheckedSections(t, good)
	e := &snapEncoder{buf: bytes.Clone(sections.head)}
	e.uvarint(uint64(len(sections.users)))
	for _, u := range sections.users {
		e.varint(int64(u.ID))
		e.f64(u.Capacity)
		e.str(u.Name)
	}
	at := len(e.buf)
	count, width := binary.Uvarint(body[at:])
	if !bytes.Equal(body[:at], e.buf) || int(count) != len(sections.tasks) || len(sections.tasks) == 0 {
		t.Fatalf("did not find the task count at body offset %d (read %d, want %d)", at, count, len(sections.tasks))
	}

	rest := body[at+width:]
	mut := append(bytes.Clone(body[:at]), binary.AppendUvarint(nil, uint64(len(rest)))...)
	mut = append(mut, rest...)
	file := append([]byte(snapshotMagic), binary.AppendUvarint(nil, snapshotCodecVersion)...)
	file = binary.AppendUvarint(file, uint64(len(mut)))
	file = append(file, mut...)
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(mut, snapshotCRCTable))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := state.Decode(bytes.NewReader(file))
	runtime.ReadMemStats(&m1)
	if err == nil || errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "length prefix") {
		t.Fatalf("err = %v, want a plain length-prefix decode error", err)
	}
	// The read buffer is 64 KiB and what precedes the prefix decodes to a
	// few times its size; len(rest) tasks would cost a hundred times the file.
	got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(file)+128<<10)
	t.Logf("%d-byte snapshot, corrupt task count %d: decode allocated %d bytes", len(file), len(rest), got)
	if got > limit {
		t.Errorf("decoding a %d-byte snapshot with a corrupt task count allocated %d bytes, want <= %d", len(file), got, limit)
	}
}

// TestBinaryCodecV1Refused: a version-1 snapshot (written before per-user
// names existed) is another build's file and must be refused by name, not
// misparsed or skipped. The v1 fixture is derived from a v2 encoding of
// name-less state: v2 then carries exactly one extra 0x00 byte (an empty
// name) per user, so dropping those bytes and re-framing yields the bytes a
// v1 build wrote — intact down to the CRC, so only the version is wrong.
func TestBinaryCodecV1Refused(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 3, Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := s.SaveStateBinary(&v2); err != nil {
		t.Fatal(err)
	}

	// Re-frame as v1: parse the v2 header, walk the body's user section
	// (stateVersion uvarint, three f64s, user count, then per user a
	// varint ID + f64 capacity + empty name length), drop each user's
	// 0x00 name byte, and rebuild magic/version/length/CRC around it.
	raw := v2.Bytes()[len(snapshotMagic):]
	codecVer, n := binary.Uvarint(raw)
	if codecVer != snapshotCodecVersion || n <= 0 {
		t.Fatalf("fixture not written by codec version %d", snapshotCodecVersion)
	}
	raw = raw[n:]
	bodyLen, n := binary.Uvarint(raw)
	body := raw[n : n+int(bodyLen)]

	var v1body []byte
	p := body
	_, n = binary.Uvarint(p) // stateVersion
	v1body = append(v1body, p[:n+24]...)
	p = p[n+24:] // three f64s
	nUsers, n := binary.Uvarint(p)
	v1body = append(v1body, p[:n]...)
	p = p[n:]
	for i := 0; i < int(nUsers); i++ {
		_, n = binary.Varint(p) // user ID
		v1body = append(v1body, p[:n+8]...)
		p = p[n+8:] // capacity
		if p[0] != 0 {
			t.Fatal("fixture user has a non-empty name")
		}
		p = p[1:] // drop the empty-name length byte
	}
	v1body = append(v1body, p...)

	v1 := []byte(snapshotMagic)
	v1 = append(v1, 1) // uvarint codec version 1
	v1 = binary.AppendUvarint(v1, uint64(len(v1body)))
	v1 = append(v1, v1body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(v1body, snapshotCRCTable))
	v1 = append(v1, crc[:]...)

	_, err = LoadServer(bytes.NewReader(v1))
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "codec version 1,") {
		t.Errorf("v1 snapshot: err = %v, want ErrBadState naming codec version 1", err)
	}
}

// TestBinaryCodecFutureVersion: a snapshot from a newer binary codec must
// fail loudly with ErrBadState, not fall back or misparse.
func TestBinaryCodecFutureVersion(t *testing.T) {
	// Hand-built header: magic + codec version 9 + empty body + its CRC.
	raw := []byte(snapshotMagic)
	raw = append(raw, 9) // uvarint codec version
	if _, err := LoadServer(bytes.NewReader(raw)); !errors.Is(err, ErrBadState) {
		t.Errorf("future codec version: err = %v, want ErrBadState", err)
	}
}
