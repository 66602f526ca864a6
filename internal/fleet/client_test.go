package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStatusCodeUnwrapsThroughWrapping(t *testing.T) {
	se := &statusError{code: 404, msg: "no such campaign"}
	if got := statusCode(se); got != 404 {
		t.Fatalf("statusCode(direct) = %d, want 404", got)
	}
	wrapped := fmt.Errorf("sync shard 3: %w", se)
	if got := statusCode(wrapped); got != 404 {
		t.Fatalf("statusCode(wrapped) = %d, want 404", got)
	}
	if got := statusCode(errors.New("plain transport error")); got != 0 {
		t.Fatalf("statusCode(non-status) = %d, want 0", got)
	}
	if got := statusCode(nil); got != 0 {
		t.Fatalf("statusCode(nil) = %d, want 0", got)
	}
}

func TestErrHTTPDecodesErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/json":
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error": "client over campaign limit"}`)
		default:
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "<html>mangled by a proxy</html>")
		}
	}))
	defer ts.Close()

	for _, tc := range []struct {
		path string
		code int
		msg  string
	}{
		{"/json", 429, "client over campaign limit"},
		{"/opaque", 502, ""},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		got := errHTTP(resp)
		if statusCode(got) != tc.code {
			t.Errorf("%s: code = %d, want %d", tc.path, statusCode(got), tc.code)
		}
		if tc.msg != "" && !strings.Contains(got.Error(), tc.msg) {
			t.Errorf("%s: error %q does not carry body message %q", tc.path, got, tc.msg)
		}
	}
}

func TestSubmitRejectsMissingID(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"status": "running"}`)
	}))
	defer ts.Close()

	wc := newWorkerClient(ts.URL+"/", http.DefaultClient) // trailing slash must be trimmed
	if wc.base != ts.URL {
		t.Fatalf("base = %q, want %q", wc.base, ts.URL)
	}
	if _, err := wc.Submit(context.Background(), testSpec(4), "t"); err == nil {
		t.Fatal("Submit accepted a 201 with no id")
	}
}
