package eta2

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"eta2/internal/state"
)

// eventMagic opens every journal record.
const eventMagic byte = 0xE2

// The journal record codec under the names the recovery tests plant records
// with.
var encodeEvent = state.EncodeEvent

type walEvent = state.Event

const eventObservations = state.EventObservations

func TestObservationsEventRoundTrip(t *testing.T) {
	obs := []Observation{
		{Task: 0, User: 0, Value: 0, Day: 0},
		{Task: 3, User: 17, Value: 42.5, Day: 2},
		{Task: 1 << 20, User: 999999, Value: -1e300, Day: 365},
		{Task: 7, User: 1, Value: math.MaxFloat64, Day: 1},
		{Task: 8, User: 2, Value: math.SmallestNonzeroFloat64, Day: 1},
		// The codec is bit-exact on values a validator would refuse.
		{Task: 9, User: 3, Value: math.Inf(-1), Day: 4},
		{Task: 10, User: 4, Value: math.NaN(), Day: 4},
	}
	payload := state.EncodeEvent(nil, state.Event{Kind: state.EventObservations, Observations: obs})
	ev, err := state.DecodeEvent(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ev.Kind != state.EventObservations {
		t.Fatalf("kind = %s", ev.Kind)
	}
	if len(ev.Observations) != len(obs) {
		t.Fatalf("decoded %d observations, want %d", len(ev.Observations), len(obs))
	}
	for i, got := range ev.Observations {
		want := obs[i]
		if got.Task != want.Task || got.User != want.User || got.Day != want.Day ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Errorf("observation %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestObservationsRecordBytesUnchanged pins an observations record to the
// bytes older builds wrote for it, so their logs still replay.
func TestObservationsRecordBytesUnchanged(t *testing.T) {
	obs := []Observation{{Task: 3, User: 17, Value: 42.5, Day: 2}, {Task: 1 << 20, User: 999999, Value: -1e300, Day: 365}}
	const want = "e20102062200000000004045400480808001fe887a9c7500883ce437feda05"
	if got := hex.EncodeToString(state.EncodeEvent(nil, state.Event{Kind: state.EventObservations, Observations: obs})); got != want {
		t.Errorf("observations record = %s, want %s", got, want)
	}
}

// TestEventRoundTripEveryKind: every record kind decodes to the event it was
// encoded from, down to an empty name, a described spec and the bits of a
// non-finite value.
func TestEventRoundTripEveryKind(t *testing.T) {
	sameObs := func(a, b Observation) bool {
		return a.Task == b.Task && a.User == b.User && a.Day == b.Day && math.Float64bits(a.Value) == math.Float64bits(b.Value)
	}
	for _, ev := range recordSeeds() {
		payload := state.EncodeEvent(nil, ev)
		if payload[0] != eventMagic || payload[1] != byte(ev.Kind) {
			t.Fatalf("%s: record starts % x", ev.Kind, payload[:2])
		}
		got, err := state.DecodeEvent(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", ev.Kind, err)
		}
		if got.Kind != ev.Kind || !slices.Equal(got.Users, ev.Users) || !slices.Equal(got.Specs, ev.Specs) ||
			!slices.Equal(got.Pairs, ev.Pairs) || !slices.EqualFunc(got.Observations, ev.Observations, sameObs) {
			t.Errorf("%s: decoded %+v from %+v", ev.Kind, got, ev)
		}
	}
}

// recordSeeds is one record of each kind.
func recordSeeds() []state.Event {
	return []state.Event{
		{Kind: state.EventObservations, Observations: []Observation{{Task: 1, User: 2, Value: math.NaN(), Day: 3}, {Task: 0, User: 5, Value: math.Inf(1)}, {Task: 4, User: 0, Value: math.Inf(-1), Day: 1}}},
		{Kind: state.EventAddUsers, Users: []User{{ID: 0, Capacity: 5}, {ID: 7, Capacity: 2.5, Name: "sensor-α"}, {ID: 3, Capacity: 0, Name: ""}}},
		{Kind: state.EventCreateTasks, Specs: []TaskSpec{{Description: "What is the noise level at the station?", ProcTime: 1}, {ProcTime: 0.5, Cost: 3, DomainHint: 40}}},
		{Kind: state.EventAllocate, Pairs: []Pair{{User: 7, Task: 1}, {User: 0, Task: 0}}},
		{Kind: state.EventCloseStep},
	}
}

func TestObservationsEventDayStamp(t *testing.T) {
	obs := []Observation{{Task: 1, User: 2, Value: 3, Day: 9}, {Task: 4, User: 5, Value: 6, Day: 10}}
	var eb obsEventBuf
	eb.encode(obs, 7)
	ev, err := state.DecodeEvent(eb.b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, o := range ev.Observations {
		if o.Day != 7 || eb.obs[i].Day != 7 {
			t.Errorf("observation %d: day = %d (scratch %d), want stamped 7", i, o.Day, eb.obs[i].Day)
		}
	}
	if obs[0].Day != 9 || obs[1].Day != 10 {
		t.Errorf("stamping wrote through to the caller's batch: %+v", obs)
	}
}

func TestObservationsEventBufferReuse(t *testing.T) {
	obs := []Observation{{Task: 1, User: 2, Value: 3.5, Day: 0}}
	var eb obsEventBuf
	eb.encode(obs, 0)
	want, buf := append([]byte(nil), eb.b...), eb.b
	// Re-encoding into the retained buffer must produce identical bytes
	// with no growth — the pooled steady state.
	eb.encode(obs, 0)
	if &eb.b[0] != &buf[0] {
		t.Fatal("re-encode grew the buffer")
	}
	if !bytes.Equal(eb.b, want) {
		t.Fatalf("re-encode produced %x, want %x", eb.b, want)
	}
}

// TestDecodeEventRefusesJSON: the JSON records older builds wrote are refused
// by name, whatever their kind, with the way to upgrade the directory. None may
// decode to an event replay would apply as a no-op.
func TestDecodeEventRefusesJSON(t *testing.T) {
	for _, payload := range []string{
		`{"t":"add_users","users":[{"ID":1,"Capacity":2}]}`,
		`{"t":"create_tasks","specs":[{"Description":"","ProcTime":1,"Cost":0,"DomainHint":1}]}`,
		`{"t":"allocate","pairs":[{"User":1,"Task":0}]}`,
		`{"t":"close_step"}`,
		`{"t":"observations","obs":[{"Task":0,"User":1,"Value":2.5,"Day":0}]}`,
		`{}`,
	} {
		ev, err := state.DecodeEvent([]byte(payload))
		if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "JSON record") || !strings.Contains(err.Error(), "/v1/admin/compact") {
			t.Errorf("%s: decoded %+v, err = %v; want ErrBadState naming the JSON record and the upgrade", payload, ev, err)
		}
	}
}

func TestDecodeBinaryEventErrors(t *testing.T) {
	good := state.EncodeEvent(nil, state.Event{Kind: state.EventObservations, Observations: []Observation{{Task: 1, User: 2, Value: 3, Day: 4}}})
	users := state.EncodeEvent(nil, state.Event{Kind: state.EventAddUsers, Users: []User{{ID: 1, Capacity: 2, Name: "ann"}}})
	cases := map[string][]byte{
		"empty":                 {},
		"empty magic":           {eventMagic},
		"wrong magic":           {0x00, byte(state.EventObservations), 0x00},
		"unknown kind":          {eventMagic, 0x7f},
		"kind zero":             {eventMagic, 0x00},
		"missing count":         {eventMagic, byte(state.EventObservations)},
		"huge count":            {eventMagic, byte(state.EventObservations), 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated body":        good[:len(good)-3],
		"trailing bytes":        append(append([]byte(nil), good...), 0x00),
		"truncated name":        users[:len(users)-1],
		"close with a body":     {eventMagic, byte(state.EventCloseStep), 0x00},
		"allocate missing task": {eventMagic, byte(state.EventAllocate), 0x01, 0x02},
	}
	for name, payload := range cases {
		if _, err := state.DecodeEvent(payload); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// FuzzDecodeEvent: arbitrary bytes never panic the decoder, and an accepted
// payload re-encodes to a record that decodes to the same event.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range recordSeeds() {
		f.Add(state.EncodeEvent(nil, ev))
	}
	f.Add([]byte(`{"t":"close_step"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := state.DecodeEvent(payload)
		if err != nil {
			return
		}
		again := state.EncodeEvent(nil, ev)
		ev2, err := state.DecodeEvent(again)
		if err != nil {
			t.Fatalf("re-encoded %s record does not decode: %v", ev.Kind, err)
		}
		if ev2.Kind != ev.Kind || !bytes.Equal(state.EncodeEvent(nil, ev2), again) {
			t.Fatalf("decode(encode(decode(p))) = %+v, decode(p) = %+v", ev2, ev)
		}
	})
}
