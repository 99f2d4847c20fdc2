package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client is a typed client for the ETA² HTTP API, suitable for driving a
// remote crowdsourcing server from workers or orchestration jobs.
type Client struct {
	base string
	http *http.Client
}

// NewClient creates a client for the server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: baseURL, http: httpClient}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: server returned %d: %s", e.StatusCode, e.Message)
}

// AddUsers registers users.
func (c *Client) AddUsers(ctx context.Context, users []UserJSON) error {
	return c.post(ctx, "/v1/users", map[string]any{"users": users}, nil)
}

// CreateTasks registers tasks and returns their IDs.
func (c *Client) CreateTasks(ctx context.Context, tasks []TaskSpecJSON) ([]int, error) {
	var resp struct {
		IDs []int `json:"ids"`
	}
	if err := c.post(ctx, "/v1/tasks", map[string]any{"tasks": tasks}, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// AllocateMaxQuality runs max-quality allocation over the pending tasks.
func (c *Client) AllocateMaxQuality(ctx context.Context) ([]PairJSON, error) {
	var resp struct {
		Pairs []PairJSON `json:"pairs"`
	}
	if err := c.post(ctx, "/v1/allocate/max-quality", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// SubmitObservations reports collected values.
func (c *Client) SubmitObservations(ctx context.Context, obs []ObservationJSON) error {
	return c.post(ctx, "/v1/observations", map[string]any{"observations": obs}, nil)
}

// CloseStep finalizes the current time step.
func (c *Client) CloseStep(ctx context.Context) (StepReportJSON, error) {
	var resp StepReportJSON
	if err := c.post(ctx, "/v1/step/close", struct{}{}, &resp); err != nil {
		return StepReportJSON{}, err
	}
	return resp, nil
}

// Expertise fetches the learned expertise of a user in a domain.
func (c *Client) Expertise(ctx context.Context, user, domain int) (float64, error) {
	var resp struct {
		Expertise float64 `json:"expertise"`
	}
	q := url.Values{"user": {fmt.Sprint(user)}, "domain": {fmt.Sprint(domain)}}
	if err := c.get(ctx, "/v1/expertise?"+q.Encode(), &resp); err != nil {
		return 0, err
	}
	return resp.Expertise, nil
}

// Health checks server liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/v1/healthz", nil)
}

// Durability fetches the durable-mode state (WAL segments, bytes,
// snapshot coverage).
func (c *Client) Durability(ctx context.Context) (DurabilityJSON, error) {
	var resp DurabilityJSON
	if err := c.get(ctx, "/v1/admin/durability", &resp); err != nil {
		return DurabilityJSON{}, err
	}
	return resp, nil
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("httpapi: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("httpapi: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("httpapi: build request: %w", err)
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var apiErr errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
			apiErr.Error = resp.Status
		}
		return &APIError{StatusCode: resp.StatusCode, Message: apiErr.Error}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("httpapi: decode response: %w", err)
	}
	return nil
}
