package httpapi

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"eta2"
	"eta2/internal/obs"
	"eta2/internal/repl"
)

func newTestServer(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv, err := eta2.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), ts
}

func TestHealth(t *testing.T) {
	client, _ := newTestServer(t)
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFullCrowdsourcingFlow(t *testing.T) {
	client, _ := newTestServer(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))

	users := make([]UserJSON, 6)
	for i := range users {
		users[i] = UserJSON{ID: i, Capacity: 8}
	}
	if err := client.AddUsers(ctx, users); err != nil {
		t.Fatal(err)
	}

	const dom = 1
	truths := map[int]float64{}
	for day := 0; day < 3; day++ {
		var specs []TaskSpecJSON
		for j := 0; j < 8; j++ {
			specs = append(specs, TaskSpecJSON{
				Description: "sensor reading",
				ProcTime:    1,
				DomainHint:  dom,
			})
		}
		ids, err := client.CreateTasks(ctx, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 8 {
			t.Fatalf("ids = %v", ids)
		}
		for _, id := range ids {
			truths[id] = 10 + float64(id)
		}

		pairs, err := client.AllocateMaxQuality(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			t.Fatal("empty allocation")
		}
		var obs []ObservationJSON
		for _, p := range pairs {
			sd := 0.2
			if p.User > 0 {
				sd = 3
			}
			obs = append(obs, ObservationJSON{
				Task:  p.Task,
				User:  p.User,
				Value: truths[p.Task] + rng.NormFloat64()*sd,
			})
		}
		if err := client.SubmitObservations(ctx, obs); err != nil {
			t.Fatal(err)
		}

		report, err := client.CloseStep(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if report.Day != day {
			t.Errorf("day = %d, want %d", report.Day, day)
		}
		if len(report.Estimates) != 8 {
			t.Errorf("estimates = %d", len(report.Estimates))
		}
	}

	// Truth lookup for a day-1 task.
	est, err := client.Truth(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if est.Task != 9 || est.Observations == 0 {
		t.Errorf("truth = %+v", est)
	}

	// Expertise lookup: user 0 (expert) must outrank user 1.
	e0, err := client.Expertise(ctx, 0, dom)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := client.Expertise(ctx, 1, dom)
	if err != nil {
		t.Fatal(err)
	}
	if e0 <= e1 {
		t.Errorf("expert expertise %.2f not above noise user %.2f", e0, e1)
	}

	// The steps above crossed every subsystem, so the registry
	// cmd/eta2server mounts at /metrics now serves every family: its
	// names, types and label names must be the committed surface, and
	// histograms must carry their cumulative +Inf bucket.
	obs.RegisterBuildInfo(obs.Default())
	rec := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	checkMetricSurface(t, rec.Body.String())
	if !strings.Contains(rec.Body.String(), `le="+Inf"`) {
		t.Error("/metrics has no +Inf histogram bucket")
	}
}

// metricSurface is the served metric surface, one line per family: its
// name, its type and its label names. It is the reviewed list of what
// /metrics holds, so a family added, renamed or relabeled anywhere shows
// up as a diff of this file (go test -run TestFullCrowdsourcingFlow
// ./internal/httpapi/ -update rewrites it).
const metricSurface = "testdata/metric_surface.golden"

var update = flag.Bool("update", false, "rewrite "+metricSurface)

// checkMetricSurface diffs a Prometheus text scrape's families against
// metricSurface. A family's label names are read off its first sample;
// a histogram's synthetic le label is not one of them.
func checkMetricSurface(t *testing.T, scrape string) {
	t.Helper()
	var got []string
	lines := strings.Split(scrape, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" || i+1 >= len(lines) {
			continue
		}
		entry := f[2] + " " + f[3]
		if labels := sampleLabelNames(lines[i+1]); len(labels) > 0 {
			entry += " " + strings.Join(labels, ",")
		}
		got = append(got, entry)
	}
	body := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(metricSurface, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricSurface)
	if err != nil {
		t.Fatalf("read %s (run with -update to write it): %v", metricSurface, err)
	}
	if body == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range got {
		if !slices.Contains(wantLines, l) {
			t.Errorf("/metrics serves %q, which %s does not hold", l, metricSurface)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(got, l) {
			t.Errorf("%s holds %q, which /metrics does not serve", metricSurface, l)
		}
	}
	t.Errorf("/metrics surface differs from %s (%d families served, %d held)", metricSurface, len(got), len(wantLines))
}

// labelRE matches one label of a sample line: its name, then its quoted
// value, in which a backslash escapes the byte after it.
var labelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// sampleLabelNames returns the label names of one sample line, le excepted.
func sampleLabelNames(sample string) []string {
	var names []string
	for _, m := range labelRE.FindAllStringSubmatch(sample, -1) {
		if m[1] != "le" {
			names = append(names, m[1])
		}
	}
	return names
}

func TestErrorStatuses(t *testing.T) {
	client, ts := newTestServer(t)
	ctx := context.Background()

	// Allocation with nothing pending → 409.
	_, err := client.AllocateMaxQuality(ctx)
	wantStatus(t, err, http.StatusConflict)

	// Close with no observations → 409.
	_, err = client.CloseStep(ctx)
	wantStatus(t, err, http.StatusConflict)

	// Truth for unknown task → 404.
	_, err = client.Truth(ctx, 99)
	wantStatus(t, err, http.StatusNotFound)

	// Invalid user → 400.
	err = client.AddUsers(ctx, []UserJSON{{ID: -1, Capacity: 1}})
	wantStatus(t, err, http.StatusBadRequest)

	// Described task without embedder → 422.
	_, err = client.CreateTasks(ctx, []TaskSpecJSON{{Description: "what is the noise", ProcTime: 1}})
	wantStatus(t, err, http.StatusUnprocessableEntity)

	// Observation for unknown task → 400.
	err = client.SubmitObservations(ctx, []ObservationJSON{{Task: 42, User: 0, Value: 1}})
	wantStatus(t, err, http.StatusBadRequest)

	// Malformed body → 400.
	resp, httpErr := ts.Client().Post(ts.URL+"/v1/users", "application/json", strings.NewReader("{not json"))
	if httpErr != nil {
		t.Fatal(httpErr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}

	// Wrong method → 405 with Allow header. (/v1/users now also serves
	// GET lookups, so probe a POST-only route.)
	resp2, httpErr := ts.Client().Get(ts.URL + "/v1/observations")
	if httpErr != nil {
		t.Fatal(httpErr)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("wrong method: status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Allow") != http.MethodPost {
		t.Errorf("Allow = %q", resp2.Header.Get("Allow"))
	}

	// Bad query parameters → 400.
	_, err = client.Truth(ctx, -1) // parsed fine, but unknown → 404
	wantStatus(t, err, http.StatusNotFound)
	resp3, httpErr := ts.Client().Get(ts.URL + "/v1/truth?task=abc")
	if httpErr != nil {
		t.Fatal(httpErr)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad task param: status %d", resp3.StatusCode)
	}
}

func TestContentTypeAndBodyLimits(t *testing.T) {
	_, ts := newTestServer(t)

	post := func(contentType, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/users", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Non-JSON and missing Content-Type → 415, not 400.
	for _, ct := range []string{"text/plain", "application/xml", ""} {
		if resp := post(ct, `{"users":[]}`); resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
	}
	// Charset parameters are fine.
	if resp := post("application/json; charset=utf-8", `{"users":[]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("json with charset: status %d, want 200", resp.StatusCode)
	}

	// A body over the 16 MiB cap → 413, not 400. The oversized bytes sit
	// in one ignored string field so the decoder must consume them all.
	huge := `{"padding":"` + strings.Repeat("a", 17<<20) + `"}`
	if resp := post("application/json", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestDurabilityEndpoints(t *testing.T) {
	ctx := context.Background()

	// In-memory server: durability reports disabled, compaction is a 409.
	client, _ := newTestServer(t)
	st, err := client.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Errorf("in-memory durability = %+v, want disabled", st)
	}
	_, err = client.Compact(ctx)
	wantStatus(t, err, http.StatusConflict)

	// Durable-backed server: stats live, compact snapshots and truncates.
	dir := t.TempDir()
	srv, err := eta2.NewServer(eta2.WithDurability(dir, eta2.DurabilityPolicy{
		Fsync:     eta2.FsyncNever,
		CompactAt: -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv))
	t.Cleanup(ts.Close)
	dclient := NewClient(ts.URL, ts.Client())

	if err := dclient.AddUsers(ctx, []UserJSON{{ID: 0, Capacity: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dclient.CreateTasks(ctx, []TaskSpecJSON{{Description: "t", ProcTime: 1, DomainHint: 1}}); err != nil {
		t.Fatal(err)
	}
	st, err = dclient.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Dir != dir {
		t.Fatalf("durability = %+v, want enabled in %s", st, dir)
	}
	if st.LastLSN != 2 || st.SnapshotLSN != 0 || st.WALBytes == 0 {
		t.Errorf("after 2 mutations: %+v", st)
	}

	st, err = dclient.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotLSN != 2 || st.Compactions != 1 {
		t.Errorf("after compact: %+v", st)
	}
	if st.LastCompaction == "" {
		t.Error("compact response missing timestamp")
	}

	// Follower of that server: the same endpoints answer from the same
	// Server.DurabilityStats / Server.Compact a primary uses, so what
	// durability reports and what compact does agree. The primary just
	// compacted, so the follower bootstraps (at LSN 2) and streams LSN 3.
	fdir := t.TempDir()
	f, err := eta2.OpenFollower(ts.URL, eta2.FollowerOptions{
		DataDir:  fdir,
		Policy:   eta2.DurabilityPolicy{Fsync: eta2.FsyncNever, CompactAt: -1},
		PollWait: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fts := httptest.NewServer(NewFollower(f))
	t.Cleanup(fts.Close)
	fclient := NewClient(fts.URL, fts.Client())
	waitFor(t, 10*time.Second, func() bool {
		return f.ReplicationStatus().AppliedLSN >= 2
	}, "follower did not bootstrap")
	if err := dclient.AddUsers(ctx, []UserJSON{{ID: 1, Capacity: 4}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return f.ReplicationStatus().AppliedLSN >= 3
	}, "follower did not catch up")

	st, err = fclient.Durability(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Dir != fdir || st.LastLSN != 3 || st.SnapshotLSN != 2 || st.Compactions != 0 {
		t.Fatalf("follower durability = %+v, want enabled in %s at LSN 3 over the bootstrap snapshot at 2", st, fdir)
	}
	st, err = fclient.Compact(ctx)
	if err != nil {
		t.Fatalf("compact on follower: %v", err)
	}
	if st.SnapshotLSN != 3 || st.Compactions != 1 || !st.Enabled {
		t.Errorf("follower after compact: %+v, want snapshot at LSN 3, 1 compaction", st)
	}
	// Chained replication stays off: a follower ships nothing.
	for _, path := range []string{repl.LogPath + "?from=1", repl.SnapshotPath} {
		resp, err := http.Get(fts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s on a follower: status %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestFailedJournalAnswers503: a write the disk could not journal is the
// node's failure, not the request's. Every write route answers 503 and
// leaves the state as it was, and a request the server refuses as invalid
// still answers 400. A write to a closed server answers 503 too.
func TestFailedJournalAnswers503(t *testing.T) {
	dir := t.TempDir()
	srv, err := eta2.NewServer(eta2.WithDurability(dir, eta2.DurabilityPolicy{SegmentSize: 256, CompactAt: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(New(srv))
	t.Cleanup(ts.Close)
	client, ctx := NewClient(ts.URL, ts.Client()), context.Background()
	if err := client.AddUsers(ctx, []UserJSON{{ID: 0, Capacity: 8}, {ID: 1, Capacity: 8}}); err != nil {
		t.Fatal(err)
	}
	ids, err := client.CreateTasks(ctx, []TaskSpecJSON{{ProcTime: 1, DomainHint: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitObservations(ctx, []ObservationJSON{{Task: ids[0], User: 0, Value: 1}, {Task: ids[0], User: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := srv.SaveStateBinary(&before); err != nil {
		t.Fatal(err)
	}

	// With the directory gone, the next append that opens a segment fails,
	// and the log refuses every append after it. The first request's record
	// is larger than a segment, so it is that append.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	many := make([]UserJSON, 40)
	for i := range many {
		many[i] = UserJSON{ID: 2 + i, Capacity: 8}
	}
	for _, w := range []struct {
		route string
		call  func() error
	}{
		{"users", func() error { return client.AddUsers(ctx, many) }},
		{"tasks", func() error {
			_, err := client.CreateTasks(ctx, []TaskSpecJSON{{ProcTime: 1, DomainHint: 1}})
			return err
		}},
		{"observations", func() error {
			return client.SubmitObservations(ctx, []ObservationJSON{{Task: ids[0], User: 0, Value: 3}})
		}},
		{"allocate", func() error {
			_, err := client.AllocateMaxQuality(ctx)
			return err
		}},
		{"close", func() error {
			_, err := client.CloseStep(ctx)
			return err
		}},
	} {
		t.Run(w.route, func(t *testing.T) { wantStatus(t, w.call(), http.StatusServiceUnavailable) })
	}
	var after bytes.Buffer
	if err := srv.SaveStateBinary(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("state changed by writes the journal refused")
	}

	// Validation runs before the journal, so these stay 400.
	wantStatus(t, client.AddUsers(ctx, []UserJSON{{ID: -1, Capacity: 1}}), http.StatusBadRequest)
	_, err = client.CreateTasks(ctx, []TaskSpecJSON{{ProcTime: -1, DomainHint: 1}})
	wantStatus(t, err, http.StatusBadRequest)
	wantStatus(t, client.SubmitObservations(ctx, []ObservationJSON{{Task: 42, User: 0, Value: 1}}), http.StatusBadRequest)

	// A closed server is no more writable than a failed one.
	_ = srv.Close()
	wantStatus(t, client.AddUsers(ctx, []UserJSON{{ID: 2, Capacity: 8}}), http.StatusServiceUnavailable)
}

// TestFailedJournalFailsNode: once a failed append leaves the journal
// refusing every later write, the failure is the node's state, not one
// request's answer. Health answers 503 naming the error, the durability
// report carries it, eta2_server_journal_failed reads 1, and reads keep
// answering 200 from the acknowledged state.
func TestFailedJournalFailsNode(t *testing.T) {
	dir := t.TempDir()
	srv, err := eta2.NewServer(eta2.WithDurability(dir, eta2.DurabilityPolicy{SegmentSize: 256, CompactAt: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(New(srv))
	t.Cleanup(ts.Close)
	client, ctx := NewClient(ts.URL, ts.Client()), context.Background()
	if err := client.AddUsers(ctx, []UserJSON{{ID: 0, Capacity: 8}, {ID: 1, Capacity: 8}}); err != nil {
		t.Fatal(err)
	}
	ids, err := client.CreateTasks(ctx, []TaskSpecJSON{{ProcTime: 1, DomainHint: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SubmitObservations(ctx, []ObservationJSON{{Task: ids[0], User: 0, Value: 1}, {Task: ids[0], User: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CloseStep(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthy node: %v", err)
	}

	// The record of 40 users is larger than a segment, so its append opens
	// one in the removed directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	many := make([]UserJSON, 40)
	for i := range many {
		many[i] = UserJSON{ID: 2 + i, Capacity: 8}
	}
	wantStatus(t, client.AddUsers(ctx, many), http.StatusServiceUnavailable)

	err = client.Health(ctx)
	wantStatus(t, err, http.StatusServiceUnavailable)
	if err == nil || !strings.Contains(err.Error(), "journal failed") || !strings.Contains(err.Error(), "create segment") {
		t.Errorf("health error %v does not name the journal failure", err)
	}
	dur, err := client.Durability(ctx)
	if err != nil {
		t.Fatalf("durability read on a failed node: %v", err)
	}
	if !strings.Contains(dur.JournalError, "create segment") {
		t.Errorf("durability journal_error = %q, want the failed segment creation", dur.JournalError)
	}
	var scrape bytes.Buffer
	if err := obs.Default().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "\neta2_server_journal_failed 1\n") {
		t.Error("eta2_server_journal_failed does not read 1")
	}
	if est, err := client.Truth(ctx, ids[0]); err != nil || est.Task != ids[0] {
		t.Errorf("truth read on a failed node: %+v, %v", est, err)
	}
	if _, err := client.Expertise(ctx, 0, 1); err != nil {
		t.Errorf("expertise read on a failed node: %v", err)
	}
}

func wantStatus(t *testing.T, err error, status int) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError %d, got %v", status, err)
	}
	if apiErr.StatusCode != status {
		t.Errorf("status = %d, want %d (%s)", apiErr.StatusCode, status, apiErr.Message)
	}
}

func TestConcurrentObservations(t *testing.T) {
	client, _ := newTestServer(t)
	ctx := context.Background()
	if err := client.AddUsers(ctx, []UserJSON{{ID: 0, Capacity: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateTasks(ctx, []TaskSpecJSON{{Description: "t", ProcTime: 1, DomainHint: 1}}); err != nil {
		t.Fatal(err)
	}
	// Hammer the observations endpoint from many goroutines: the mutex
	// must keep the server consistent.
	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- client.SubmitObservations(ctx, []ObservationJSON{{Task: 0, User: 0, Value: float64(w)}})
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	report, err := client.CloseStep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Estimates[0].Observations != workers {
		t.Errorf("observations = %d, want %d", report.Estimates[0].Observations, workers)
	}
}

// Truth fetches the latest estimate for a task.
func (c *Client) Truth(ctx context.Context, task int) (TruthJSON, error) {
	var resp TruthJSON
	q := url.Values{"task": {fmt.Sprint(task)}}
	if err := c.get(ctx, "/v1/truth?"+q.Encode(), &resp); err != nil {
		return TruthJSON{}, err
	}
	return resp, nil
}

// Compact asks the server to snapshot its state and truncate the
// write-ahead log, returning the post-compaction durability state.
func (c *Client) Compact(ctx context.Context) (DurabilityJSON, error) {
	var resp DurabilityJSON
	if err := c.post(ctx, "/v1/admin/compact", struct{}{}, &resp); err != nil {
		return DurabilityJSON{}, err
	}
	return resp, nil
}
