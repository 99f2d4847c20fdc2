package httpapi

import (
	"net/http/httptest"
	"testing"

	"eta2"
)

// TestNormalizeMethodBoundsLabelSet: the method label of
// eta2_http_requests_total comes from the fixed set of standard verbs plus
// "other", never from raw client bytes.
func TestNormalizeMethodBoundsLabelSet(t *testing.T) {
	standard := []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "CONNECT", "OPTIONS", "TRACE"}
	for _, m := range standard {
		if got := normalizeMethod(m); got != m {
			t.Errorf("normalizeMethod(%q) = %q, want identity", m, got)
		}
	}
	for _, m := range []string{"BREW", "get", "PROPFIND", "X\xff\xfe", "", "GARBAGE-VERB-42"} {
		if got := normalizeMethod(m); got != "other" {
			t.Errorf("normalizeMethod(%q) = %q, want \"other\"", m, got)
		}
	}
}

// TestGarbageMethodsDoNotMintSeries drives requests with attacker-chosen
// verbs through the instrumented handler and asserts they all collapse
// onto the "other" series. A raw verb reaching the counter would panic,
// since the method label declares only methodLabels.
func TestGarbageMethodsDoNotMintSeries(t *testing.T) {
	srv, err := eta2.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	h := New(srv)
	for _, verb := range []string{"BREW", "SPY", "EXFILTRATE"} {
		req := httptest.NewRequest("GET", "http://test/v1/healthz", nil)
		req.Method = verb // bypass NewRequest's validation, as a raw socket would
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}
	// The health handler answers 405 to non-GET verbs, so all three land
	// on the ("other", "4xx") series.
	if got := mHTTPRequests.With("/v1/healthz", "other", "4xx").Value(); got < 3 {
		t.Errorf("other-method series = %d, want >= 3", got)
	}
}

// TestCodeClass: every status lands in one of the five declared classes,
// the out-of-range ones at the nearest end.
func TestCodeClass(t *testing.T) {
	for status, want := range map[int]string{
		0: "1xx", 100: "1xx", 199: "1xx", 200: "2xx", 299: "2xx", 304: "3xx",
		404: "4xx", 499: "4xx", 500: "5xx", 599: "5xx", 600: "5xx",
	} {
		if got := codeClass(status); got != want {
			t.Errorf("codeClass(%d) = %s, want %s", status, got, want)
		}
	}
}
