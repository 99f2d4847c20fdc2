// Package httpapi exposes an eta2.Server as a JSON-over-HTTP crowdsourcing
// service: the deployment shape the paper's system diagram implies, with
// mobile clients submitting observations to a central server that clusters
// tasks, allocates them, and publishes truth estimates.
//
// The API is versioned under /v1 and uses plain JSON request/response
// bodies (POSTs with any other Content-Type are rejected with 415). All
// handlers are safe for concurrent use and the HTTP layer holds no locks
// of its own: eta2.Server is internally synchronized with a
// reader/writer split, so read endpoints (/v1/truth, /v1/expertise,
// /v1/healthz, /v1/admin/durability) run fully in parallel and are never
// blocked behind an in-flight WAL fsync, while mutations group-commit
// their journal records (see DESIGN.md §11).
//
// The /v1/admin endpoints expose the durable mode: GET
// /v1/admin/durability reports WAL shape and snapshot coverage, POST
// /v1/admin/compact forces a snapshot+truncate cycle.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"time"

	"eta2"
	"eta2/internal/repl"
)

// Handler serves the ETA² HTTP API. It is a thin concurrent front: all
// synchronization lives in eta2.Server.
type Handler struct {
	server *eta2.Server
	// follower is set by NewFollower: admin endpoints then report the
	// follower's replication view and promote acts on it.
	follower *eta2.Follower
	mux      *http.ServeMux
}

var _ http.Handler = (*Handler)(nil)

// routes is the API: each pattern New mounts and its handler. The patterns,
// plus "unmatched", are also the declared values of the eta2_http_* route
// label (metrics.go), so the route list is written once.
var routes = []struct {
	pattern string
	handle  func(*Handler, http.ResponseWriter, *http.Request)
}{
	{"/v1/healthz", (*Handler).handleHealth},
	{"/v1/users", (*Handler).handleUsers},
	{"/v1/users/named", (*Handler).handleNamedUsers},
	{"/v1/tasks", (*Handler).handleTasks},
	{"/v1/allocate/max-quality", (*Handler).handleAllocateMaxQuality},
	{"/v1/observations", (*Handler).handleObservations},
	{"/v1/step/close", (*Handler).handleCloseStep},
	{"/v1/truth", (*Handler).handleTruth},
	{"/v1/expertise", (*Handler).handleExpertise},
	{"/v1/admin/durability", (*Handler).handleDurability},
	{"/v1/admin/compact", (*Handler).handleCompact},
	{"/v1/admin/replication", (*Handler).handleReplication},
	{"/v1/admin/promote", (*Handler).handlePromote},
	{"/v1/admin/traces", (*Handler).handleTraces},
	{repl.LogPath, (*Handler).handleReplLog},
	{repl.SnapshotPath, (*Handler).handleReplSnapshot},
}

// New wraps an eta2.Server in the HTTP API. Every route is instrumented
// with the eta2_http_* metrics (see metrics.go); unmatched paths get a
// JSON 404 under the synthetic route "unmatched" instead of the
// ServeMux's plain-text default.
func New(server *eta2.Server) *Handler {
	h := &Handler{server: server, mux: http.NewServeMux()}
	for _, rt := range routes {
		h.mux.HandleFunc(rt.pattern, h.instrument(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.handle(h, w, r)
		}))
	}
	h.mux.HandleFunc("/", h.instrument("unmatched", handleNotFound))
	return h
}

// handleNotFound is the JSON fallback for paths no route matches.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint: %s", r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// ---- wire types ----

// UserJSON is the wire form of a user. Name optionally binds an external
// string identifier to the dense id: the server interns it once and every
// later request that carries the name resolves it at the decode edge.
type UserJSON struct {
	ID       int     `json:"id"`
	Capacity float64 `json:"capacity"`
	Name     string  `json:"name,omitempty"`
}

// TaskSpecJSON is the wire form of a task specification.
type TaskSpecJSON struct {
	Description string  `json:"description"`
	ProcTime    float64 `json:"proc_time"`
	Cost        float64 `json:"cost,omitempty"`
	DomainHint  int     `json:"domain_hint,omitempty"`
}

// PairJSON is the wire form of an allocation decision.
type PairJSON struct {
	User int `json:"user"`
	Task int `json:"task"`
}

// ObservationJSON is the wire form of a reported value. UserName, when
// present, takes precedence over User: it is resolved to the dense id via
// the server's intern table at decode time, so everything downstream of
// this struct keys on ints.
type ObservationJSON struct {
	Task     int     `json:"task"`
	User     int     `json:"user"`
	Value    float64 `json:"value"`
	UserName string  `json:"user_name,omitempty"`
}

// TruthJSON is the wire form of a truth estimate.
type TruthJSON struct {
	Task         int     `json:"task"`
	Value        float64 `json:"value"`
	Base         float64 `json:"base"`
	Observations int     `json:"observations"`
}

// StepReportJSON is the wire form of a closed time step.
type StepReportJSON struct {
	Day           int         `json:"day"`
	Estimates     []TruthJSON `json:"estimates"`
	MLEIterations int         `json:"mle_iterations"`
	Converged     bool        `json:"converged"`
	NewDomains    []int       `json:"new_domains,omitempty"`
	MergedDomains int         `json:"merged_domains,omitempty"`
}

// DurabilityJSON is the wire form of the durable-mode state.
type DurabilityJSON struct {
	Enabled     bool   `json:"enabled"`
	Dir         string `json:"dir,omitempty"`
	Segments    int    `json:"segments"`
	WALBytes    int64  `json:"wal_bytes"`
	LastLSN     uint64 `json:"last_lsn"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// CommittedLSN is the WAL acknowledgement frontier — what replication
	// ships; LastLSN minus a follower's applied_lsn is its lag in records.
	CommittedLSN uint64 `json:"committed_lsn"`
	Compactions  int    `json:"compactions"`
	// LastCompaction is RFC 3339, empty if no compaction ran this process.
	LastCompaction string `json:"last_compaction,omitempty"`
	// JournalError is set once the journal failed; see
	// eta2.DurabilityStats.
	JournalError string `json:"journal_error,omitempty"`
}

// errorJSON is the error envelope every failure returns.
type errorJSON struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if failed := h.server.DurabilityStats().JournalError; failed != "" {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: %s", eta2.ErrJournalFailed, failed))
		return
	}
	day := h.server.Day()
	users := h.server.NumUsers()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"day":    day,
		"users":  users,
	})
}

func (h *Handler) handleUsers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		h.handleUserLookup(w, r)
		return
	case http.MethodPost:
	default:
		methodNotAllowed(w, "GET, POST")
		return
	}
	var req struct {
		Users []UserJSON `json:"users"`
	}
	if !decode(w, r, &req) {
		return
	}
	users := make([]eta2.User, 0, len(req.Users))
	for _, u := range req.Users {
		users = append(users, eta2.User{ID: eta2.UserID(u.ID), Capacity: u.Capacity, Name: u.Name})
	}
	err := h.server.AddUsersContext(r.Context(), users...)
	n := h.server.NumUsers()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"total_users": n})
}

// handleUserLookup resolves GET /v1/users?name=... (name → id via the
// intern table) or GET /v1/users?user=... (id → name, the response-encoding
// edge where the string form is recovered).
func (h *Handler) handleUserLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if name := q.Get("name"); name != "" {
		id, ok := h.server.ResolveUser(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown user name %q", name))
			return
		}
		writeJSON(w, http.StatusOK, UserJSON{ID: int(id), Name: name})
		return
	}
	id, err := strconv.Atoi(q.Get("user"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need ?name= or a valid ?user= id: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, UserJSON{ID: id, Name: h.server.UserName(eta2.UserID(id))})
}

// handleNamedUsers registers users by external name: the server assigns
// dense ids (new names) or updates capacity (known names) and returns the
// ids in request order.
func (h *Handler) handleNamedUsers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req struct {
		Capacity float64  `json:"capacity"`
		Names    []string `json:"names"`
	}
	if !decode(w, r, &req) {
		return
	}
	ids, err := h.server.AddUsersByName(req.Capacity, req.Names...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	writeJSON(w, http.StatusOK, map[string][]int{"ids": out})
}

func (h *Handler) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req struct {
		Tasks []TaskSpecJSON `json:"tasks"`
	}
	if !decode(w, r, &req) {
		return
	}
	specs := make([]eta2.TaskSpec, 0, len(req.Tasks))
	for _, t := range req.Tasks {
		specs = append(specs, eta2.TaskSpec{
			Description: t.Description,
			ProcTime:    t.ProcTime,
			Cost:        t.Cost,
			DomainHint:  eta2.DomainID(t.DomainHint),
		})
	}
	ids, err := h.server.CreateTasks(specs...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	writeJSON(w, http.StatusOK, map[string][]int{"ids": out})
}

func (h *Handler) handleAllocateMaxQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	alloc, err := h.server.AllocateMaxQuality()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	pairs := make([]PairJSON, 0, alloc.Len())
	for _, p := range alloc.Pairs {
		pairs = append(pairs, PairJSON{User: int(p.User), Task: int(p.Task)})
	}
	writeJSON(w, http.StatusOK, map[string][]PairJSON{"pairs": pairs})
}

func (h *Handler) handleObservations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req struct {
		Observations []ObservationJSON `json:"observations"`
	}
	if !decode(w, r, &req) {
		return
	}
	obs := make([]eta2.Observation, 0, len(req.Observations))
	for _, o := range req.Observations {
		user := eta2.UserID(o.User)
		if o.UserName != "" {
			id, ok := h.server.ResolveUser(o.UserName)
			if !ok {
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown user name %q", o.UserName))
				return
			}
			user = id
		}
		obs = append(obs, eta2.Observation{
			Task:  eta2.TaskID(o.Task),
			User:  user,
			Value: o.Value,
		})
	}
	err := h.server.SubmitObservationsContext(r.Context(), obs...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": len(obs)})
}

func (h *Handler) handleCloseStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	report, err := h.server.CloseTimeStepContext(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, stepReportJSON(report))
}

func (h *Handler) handleTruth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	id, err := strconv.Atoi(r.URL.Query().Get("task"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid task id: %w", err))
		return
	}
	est, ok := h.server.Truth(eta2.TaskID(id))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no estimate for task %d", id))
		return
	}
	writeJSON(w, http.StatusOK, TruthJSON{
		Task:         int(est.Task),
		Value:        est.Value,
		Base:         est.Base,
		Observations: est.Observations,
	})
}

func (h *Handler) handleExpertise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	var user int
	if name := r.URL.Query().Get("user_name"); name != "" {
		id, ok := h.server.ResolveUser(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown user name %q", name))
			return
		}
		user = int(id)
	} else {
		var err error
		user, err = strconv.Atoi(r.URL.Query().Get("user"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid user id: %w", err))
			return
		}
	}
	domain, err := strconv.Atoi(r.URL.Query().Get("domain"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid domain id: %w", err))
		return
	}
	exp := h.server.ExpertiseInDomain(eta2.UserID(user), eta2.DomainID(domain))
	writeJSON(w, http.StatusOK, map[string]float64{"expertise": exp})
}

func (h *Handler) handleDurability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	st := h.server.DurabilityStats()
	writeJSON(w, http.StatusOK, durabilityJSON(st))
}

func (h *Handler) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	err := h.server.Compact()
	st := h.server.DurabilityStats()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, durabilityJSON(st))
}

// ---- helpers ----

func durabilityJSON(st eta2.DurabilityStats) DurabilityJSON {
	out := DurabilityJSON{
		Enabled:      st.Enabled,
		Dir:          st.Dir,
		Segments:     st.Segments,
		WALBytes:     st.WALBytes,
		LastLSN:      st.LastLSN,
		SnapshotLSN:  st.SnapshotLSN,
		CommittedLSN: st.CommittedLSN,
		Compactions:  st.Compactions,
		JournalError: st.JournalError,
	}
	if !st.LastCompaction.IsZero() {
		out.LastCompaction = st.LastCompaction.Format(time.RFC3339)
	}
	return out
}

func stepReportJSON(report eta2.StepReport) StepReportJSON {
	out := StepReportJSON{
		Day:           report.Day,
		MLEIterations: report.MLEIterations,
		Converged:     report.Converged,
		MergedDomains: report.MergedDomains,
	}
	for _, d := range report.NewDomains {
		out.NewDomains = append(out.NewDomains, int(d))
	}
	for _, est := range report.Estimates {
		out.Estimates = append(out.Estimates, TruthJSON{
			Task:         int(est.Task),
			Value:        est.Value,
			Base:         est.Base,
			Observations: est.Observations,
		})
	}
	return out
}

// decode parses the JSON request body: 415 for a non-JSON Content-Type,
// 413 when the body exceeds the size cap, 400 for malformed JSON.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported content type %q; use application/json", ct))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding of our own wire types cannot fail; ignore the error after
	// headers are sent (nothing useful can be done).
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope. It is the one table from a
// server error to a status:
//   - 503 when the node cannot take a well-formed request: it is a read
//     replica (the message names the primary to write to instead), its
//     journal failed, or it is closing;
//   - 409 when the state cannot serve the request yet: nothing to allocate,
//     no observations to close, no data directory to compact;
//   - 422 for a task description with no embedder to read it.
//
// Any other error keeps the caller's status.
func writeError(w http.ResponseWriter, status int, err error) {
	var fw *eta2.FollowerWriteError
	switch {
	case errors.As(err, &fw), errors.Is(err, eta2.ErrJournalFailed), errors.Is(err, eta2.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, eta2.ErrNothingToAllocate), errors.Is(err, eta2.ErrNoObservations), errors.Is(err, eta2.ErrNotDurable):
		status = http.StatusConflict
	case errors.Is(err, eta2.ErrNoEmbedder):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func methodNotAllowed(w http.ResponseWriter, allowed string) {
	w.Header().Set("Allow", allowed)
	writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
}
