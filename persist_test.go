package eta2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"eta2/internal/embedding"
)

// buildBusyServer runs a couple of time steps so every state component is
// populated: users, hinted+described tasks, expertise, truths, clustering.
func buildBusyServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(WithEmbedder(rootTestEmbedder(t)), WithAlpha(0.7), WithGamma(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		if err := s.AddUsers(User{ID: UserID(u), Capacity: 10}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	descs := []string{
		"What is the noise level around the train station?",
		"What is the decibel reading at the concert hall?",
		"What is the retail price at the local supermarket?",
		"What is the gas price at the gas station?",
		"What is the traffic speed on the main bridge?",
		"What is the congestion level at the ring road?",
	}
	for day := 0; day < 2; day++ {
		var specs []TaskSpec
		for _, d := range descs {
			specs = append(specs, TaskSpec{Description: d, ProcTime: 1})
		}
		if _, err := s.CreateTasks(specs...); err != nil {
			t.Fatal(err)
		}
		alloc, err := s.AllocateMaxQuality()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range alloc.Pairs {
			v := float64(p.Task%7)*3 + rng.NormFloat64()/(1+float64(p.User))
			if err := s.SubmitObservations(Observation{Task: p.Task, User: p.User, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.CloseTimeStep(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := buildBusyServer(t)

	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadServer(bytes.NewReader(buf.Bytes()), WithEmbedder(rootTestEmbedder(t)))
	if err != nil {
		t.Fatal(err)
	}

	// Scalar state.
	if restored.Day() != s.Day() {
		t.Errorf("day: %d vs %d", restored.Day(), s.Day())
	}
	if restored.NumUsers() != s.NumUsers() {
		t.Errorf("users: %d vs %d", restored.NumUsers(), s.NumUsers())
	}
	if restored.NumDomains() != s.NumDomains() {
		t.Errorf("domains: %d vs %d", restored.NumDomains(), s.NumDomains())
	}

	// Domains and expertise must match exactly for every task and user.
	for id := TaskID(0); int(id) < 12; id++ {
		if restored.Domain(id) != s.Domain(id) {
			t.Errorf("task %d: domain %d vs %d", id, restored.Domain(id), s.Domain(id))
		}
		for u := UserID(0); u < 6; u++ {
			a, b := restored.Expertise(u, id), s.Expertise(u, id)
			if a != b {
				t.Errorf("expertise(%d,%d): %g vs %g", u, id, a, b)
			}
		}
		ea, okA := restored.Truth(id)
		eb, okB := s.Truth(id)
		if okA != okB || ea != eb {
			t.Errorf("truth(%d): %+v/%v vs %+v/%v", id, ea, okA, eb, okB)
		}
	}

	// Snapshots must be byte-stable.
	var buf2 bytes.Buffer
	if err := restored.SaveStateBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("save → load → save is not byte-stable")
	}
}

func TestRestoredServerKeepsWorking(t *testing.T) {
	s := buildBusyServer(t)
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadServer(&buf, WithEmbedder(rootTestEmbedder(t)))
	if err != nil {
		t.Fatal(err)
	}

	// New described tasks must cluster into the EXISTING noise domain.
	noiseDomain := restored.Domain(0) // task 0 was a noise question
	ids, err := restored.CreateTasks(TaskSpec{
		Description: "What is the sound intensity near the construction site?",
		ProcTime:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Domain(ids[0]); got != noiseDomain {
		t.Errorf("new noise task landed in domain %d, want %d", got, noiseDomain)
	}

	// And a full step still runs.
	alloc, err := restored.AllocateMaxQuality()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, p := range alloc.Pairs {
		if err := restored.SubmitObservations(Observation{Task: p.Task, User: p.User, Value: rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := restored.CloseTimeStep(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadServerWithoutEmbedder(t *testing.T) {
	s := buildBusyServer(t)
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadServer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Existing state is fully usable...
	if restored.NumDomains() != s.NumDomains() {
		t.Error("domains lost")
	}
	// ...but new described tasks need an embedder.
	if _, err := restored.CreateTasks(TaskSpec{Description: "What is the noise level?", ProcTime: 1}); err == nil {
		t.Error("described task accepted without embedder")
	}
	// Hinted tasks still work.
	if _, err := restored.CreateTasks(TaskSpec{Description: "hinted", ProcTime: 1, DomainHint: 1}); err != nil {
		t.Errorf("hinted task rejected: %v", err)
	}
}

func TestSaveLoadRoundTripMidStep(t *testing.T) {
	// Snapshot between Allocate and CloseTimeStep, when pending tasks and
	// unprocessed observations are both non-empty.
	s := buildBusyServer(t)
	if _, err := s.CreateTasks(
		TaskSpec{Description: "What is the noise level at the airport?", ProcTime: 1},
		TaskSpec{Description: "What is the fuel price on the highway?", ProcTime: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(
		Observation{Task: 12, User: 0, Value: 4.5},
		Observation{Task: 13, User: 3, Value: 2.25},
	); err != nil {
		t.Fatal(err)
	}
	if s.st.Load().Counts().Pending == 0 || s.st.Load().Counts().Observations == 0 {
		t.Fatalf("fixture not mid-step: %d pending, %d observations", s.st.Load().Counts().Pending, s.st.Load().Counts().Observations)
	}

	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadServer(bytes.NewReader(buf.Bytes()), WithEmbedder(rootTestEmbedder(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.st.Load().Counts().Pending, s.st.Load().Counts().Pending; got != want {
		t.Errorf("pending tasks: %d vs %d", got, want)
	}
	if got, want := restored.st.Load().Counts().Observations, s.st.Load().Counts().Observations; got != want {
		t.Errorf("observations: %d vs %d", got, want)
	}
	var buf2 bytes.Buffer
	if err := restored.SaveStateBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("mid-step save → load → save is not byte-stable")
	}

	// The restored server finishes the step identically to the original.
	origReport, err := s.CloseTimeStep()
	if err != nil {
		t.Fatal(err)
	}
	restReport, err := restored.CloseTimeStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(origReport.Estimates) != len(restReport.Estimates) {
		t.Errorf("step estimates: %d vs %d", len(origReport.Estimates), len(restReport.Estimates))
	}
	if !bytes.Equal(saveBytes(t, s), saveBytes(t, restored)) {
		t.Error("closing the step diverges between original and restored server")
	}
}

// A snapshot with described tasks reopened under an embedder of another
// dimension (a data directory restarted with another -model) used to open:
// the first new description was then at distance +Inf from every saved one,
// d* became +Inf and every domain merged into one.
func TestLoadServerRefusesEmbedderOfAnotherDimension(t *testing.T) {
	s, err := NewServer(WithEmbedder(embedding.NewHashEmbedder(16, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{Description: "What is the noise level at the airport?", ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = LoadServer(&buf, WithEmbedder(embedding.NewHashEmbedder(8, 7)))
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "16") || !strings.Contains(err.Error(), "8") {
		t.Errorf("16-dimensional task vectors under an 8-dimensional embedder: %v", err)
	}
}

// encodeSnapshot reframes a snapshot file as state version version, so a
// test can hand LoadServer a well-formed file whose only fault is what file
// and version say.
func encodeSnapshot(t *testing.T, version byte, file []byte) []byte {
	t.Helper()
	file = bytes.Clone(file)
	_, n1 := binary.Uvarint(file[len(snapshotMagic):])
	_, n2 := binary.Uvarint(file[len(snapshotMagic)+n1:])
	body := file[len(snapshotMagic)+n1+n2 : len(file)-4]
	if body[0] != stateVersion || version >= 0x80 {
		t.Fatalf("state version is not the one byte that opens the body (read %d, to write %d)", body[0], version)
	}
	body[0] = version
	binary.LittleEndian.PutUint32(file[len(file)-4:], crc32.Checksum(body, snapshotCRCTable))
	return file
}

// emptyState is the least a snapshot encodes: no users, no tasks, an empty
// expertise store.
func emptyState(t *testing.T) []byte {
	t.Helper()
	s, err := NewServer(WithAlpha(0.5), WithGamma(0.5), WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return saveBytes(t, s)
}

func TestLoadServerFutureVersion(t *testing.T) {
	_, err := LoadServer(bytes.NewReader(encodeSnapshot(t, 2, emptyState(t))))
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
	// The message must name BOTH versions so an operator can tell which
	// side to upgrade.
	for _, want := range []string{"version 2", "supports version 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLoadServerRejectsGarbage(t *testing.T) {
	if _, err := LoadServer(strings.NewReader(snapshotMagic)); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := LoadServer(bytes.NewReader(encodeSnapshot(t, 99, emptyState(t)))); err == nil {
		t.Error("wrong version accepted")
	}
	// The binary codec is the one encoding: a JSON document is not a snapshot.
	if _, err := LoadServer(strings.NewReader(`{"version":1,"alpha":0.5,"gamma":0.5,"epsilon":0.1}`)); err == nil {
		t.Error("JSON document accepted as a snapshot")
	}
	if _, err := LoadServer(bytes.NewReader(encodeSnapshot(t, stateVersion, emptyState(t)))); err != nil {
		t.Errorf("the empty state, the base of the two bad ones here, refused: %v", err)
	}
	// Inconsistent cluster state.
	// Inconsistent cluster state: an engine of two items, one of them
	// placed, and no vector or task id for either.
	bad := splitCheckedSections(t, emptyState(t))
	e := &snapEncoder{buf: []byte{1}}
	e.f64(0.5) // gamma
	e.f64(0)   // d*
	e.varint(2)
	e.varint(0)
	e.uvarint(1) // domains
	e.varint(1)
	e.uvarint(1) // members
	e.uvarint(1)
	e.varint(0)
	e.uvarint(1) // the distance matrix
	e.uvarint(1)
	e.f64(0)
	e.uvarint(1) // item slots
	e.varint(0)
	e.uvarint(0) // vectors
	e.uvarint(0) // task ids
	bad.tail = e.buf
	if _, err := LoadServer(bytes.NewReader(bad.file())); err == nil {
		t.Error("inconsistent cluster state accepted")
	}
}
