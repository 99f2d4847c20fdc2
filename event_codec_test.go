package eta2

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestObservationsEventRoundTrip(t *testing.T) {
	obs := []Observation{
		{Task: 0, User: 0, Value: 0, Day: 0},
		{Task: 3, User: 17, Value: 42.5, Day: 2},
		{Task: 1 << 20, User: 999999, Value: -1e300, Day: 365},
		{Task: 7, User: 1, Value: math.MaxFloat64, Day: 1},
		{Task: 8, User: 2, Value: math.SmallestNonzeroFloat64, Day: 1},
		// The binary codec is bit-exact on values JSON cannot even carry.
		{Task: 9, User: 3, Value: math.Inf(-1), Day: 4},
		{Task: 10, User: 4, Value: math.NaN(), Day: 4},
	}
	payload := encodeObservationsEvent(nil, obs, -1)
	ev, err := decodeEvent(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ev.Type != eventObservations {
		t.Fatalf("type = %q", ev.Type)
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

func TestObservationsEventDayStamp(t *testing.T) {
	obs := []Observation{{Task: 1, User: 2, Value: 3, Day: 9}, {Task: 4, User: 5, Value: 6, Day: 10}}
	ev, err := decodeEvent(encodeObservationsEvent(nil, obs, 7))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, o := range ev.Observations {
		if o.Day != 7 {
			t.Errorf("observation %d: day = %d, want stamped 7", i, o.Day)
		}
	}
}

func TestObservationsEventBufferReuse(t *testing.T) {
	obs := []Observation{{Task: 1, User: 2, Value: 3.5, Day: 0}}
	buf := encodeObservationsEvent(nil, obs, 0)
	want := append([]byte(nil), buf...)
	// Re-encoding into the retained buffer must produce identical bytes
	// with no growth — the pooled steady state.
	buf2 := encodeObservationsEvent(buf[:0], obs, 0)
	if &buf2[0] != &buf[0] {
		t.Fatal("re-encode grew the buffer")
	}
	if !reflect.DeepEqual(buf2, want) {
		t.Fatalf("re-encode produced %x, want %x", buf2, want)
	}
}

func TestDecodeEventSniffsJSON(t *testing.T) {
	payload, err := json.Marshal(walEvent{Type: eventAddUsers, Users: []User{{ID: 1, Capacity: 2}}}) // as journalBuffered writes it
	if err != nil {
		t.Fatal(err)
	}
	ev, err := decodeEvent(payload)
	if err != nil {
		t.Fatalf("decode JSON event: %v", err)
	}
	if ev.Type != eventAddUsers || len(ev.Users) != 1 || ev.Users[0].ID != 1 {
		t.Fatalf("decoded %+v", ev)
	}
}

// TestDecodeEventRefusesJSONObservations: the pre-binary observations
// encoding is refused by name. It must never decode to an event with no
// observations — replay would apply it as a no-op and carry on.
func TestDecodeEventRefusesJSONObservations(t *testing.T) {
	payload := []byte(`{"t":"observations","obs":[{"Task":0,"User":1,"Value":2.5,"Day":0}]}`)
	ev, err := decodeEvent(payload)
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), `"observations"`) {
		t.Fatalf("JSON observations event: decoded %+v, err = %v; want ErrBadState naming the event", ev, err)
	}
}

func TestDecodeBinaryEventErrors(t *testing.T) {
	good := encodeObservationsEvent(nil, []Observation{{Task: 1, User: 2, Value: 3, Day: 4}}, -1)
	cases := map[string][]byte{
		"empty magic":    {eventBinMagic},
		"unknown kind":   {eventBinMagic, 0x7f},
		"missing count":  {eventBinMagic, eventBinObservations},
		"huge count":     {eventBinMagic, eventBinObservations, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated body": good[:len(good)-3],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
	}
	for name, payload := range cases {
		if _, err := decodeEvent(payload); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}
