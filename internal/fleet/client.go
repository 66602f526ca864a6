package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"cliffedge"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// workerClient speaks a cliffedged worker's HTTP API — the existing
// single-box API, unchanged: campaigns are submitted with POST, progress
// follows over SSE, and the merge feed is the raw result log. One client
// per worker URL; all methods are safe for concurrent use (the underlying
// http.Client is).
type workerClient struct {
	base   string // http://host:port, no trailing slash
	client *http.Client
}

func newWorkerClient(base string, client *http.Client) *workerClient {
	return &workerClient{base: strings.TrimRight(base, "/"), client: client}
}

// statusError is a non-2xx worker response. The coordinator branches on
// the code: a 404 means the worker no longer knows the campaign (it was
// restarted over a fresh store), which re-runs the shard rather than
// retrying the request.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("worker: %d: %s", e.code, e.msg)
	}
	return fmt.Sprintf("worker: status %d", e.code)
}

func statusCode(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// errHTTP decorates a non-2xx response with its body's error document.
func errHTTP(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var doc struct {
		Error string `json:"error"`
	}
	se := &statusError{code: resp.StatusCode}
	if json.Unmarshal(body, &doc) == nil {
		se.msg = doc.Error
	}
	return se
}

// Submit posts a campaign spec and returns the worker-allocated ID.
func (w *workerClient) Submit(ctx context.Context, spec cliffedge.CampaignSpec, clientID string) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.base+"/api/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := w.client.Do(req)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", errHTTP(resp)
	}
	defer resp.Body.Close()
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	if doc.ID == "" {
		return "", fmt.Errorf("worker: submit response carried no id")
	}
	return doc.ID, nil
}

// Cancel requests cancellation of a remote campaign — the best-effort
// cleanup when a shard is re-leased away from a worker that may still be
// alive (a false-positive loss), so the orphaned run stops burning its
// pool. Errors are the caller's to ignore: an unreachable worker needs no
// cleanup and a 409 means the campaign already ended.
func (w *workerClient) Cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		w.base+"/api/v1/campaigns/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return nil
}

// errTransport marks a Results failure where the worker could not be
// reached or the transfer broke. Every other failure is an answer — a
// refusal, a payload that does not decode — which waiting will not change.
var errTransport = errors.New("worker unreachable")

// meteredBody counts the bytes read from a /results body and keeps the
// error that broke the read, which store's decoder cannot tell from an
// undecodable payload.
type meteredBody struct {
	r   io.Reader
	n   int64
	err error
}

func (m *meteredBody) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += int64(n)
	if err != nil && err != io.EOF {
		m.err = err
	}
	return n, err
}

// Results fetches the campaign's raw result log from byte offset on and
// decodes its clean prefix, returning the records and the bytes they
// occupied — offset plus that is the next fetch's cursor. The CRC framing
// travels with the bytes, so a log snapshotted mid-append degrades to
// fewer records, never to corrupt ones; a transfer that breaks (the worker
// died mid-body) is an errTransport and none of it is used. A 416 means
// the log is shorter than offset: not the log the cursor came from.
func (w *workerClient) Results(ctx context.Context, id string, offset int64) ([]store.Record, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/v1/campaigns/%s/results?offset=%d", w.base, id, offset), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errTransport, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, errHTTP(resp)
	}
	body := &meteredBody{r: resp.Body}
	recs, n, err := store.DecodeRecordsN(body)
	mSyncBytes.Add(uint64(body.n))
	if body.err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errTransport, body.err)
	}
	return recs, n, err
}

// Events opens the campaign's SSE stream from the given cursor. The
// returned channel closes when the stream ends (terminal event, network
// error, or ctx done); the caller reconnects with the last seq it saw —
// the server's Last-Event-ID replay makes the handoff exactly-once.
func (w *workerClient) Events(ctx context.Context, id string, since int64) (<-chan serve.Event, func(), error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.base+"/api/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if since > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", since))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, errHTTP(resp)
	}
	ch := make(chan serve.Event)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		// A stream that ends in an error is a stream that ended: the caller
		// reconnects from its cursor either way.
		_ = serve.ReadSSE(resp.Body, func(ev serve.Event) bool {
			select {
			case ch <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch, func() { resp.Body.Close() }, nil
}

// Healthy probes the worker's /healthz.
func (w *workerClient) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return resp.StatusCode == http.StatusOK
}
