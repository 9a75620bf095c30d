package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"l2bm/internal/exp"
)

// fuzzRoutes is every route of the API, one method each.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPost, "/v1/sweeps"},
	{http.MethodGet, "/v1/sweeps/{id}"},
	{http.MethodGet, "/v1/sweeps/{id}/events"},
	{http.MethodGet, "/v1/sweeps/{id}/result"},
	{http.MethodGet, "/v1/sweeps/{id}/trace"},
	{http.MethodDelete, "/v1/sweeps/{id}"},
	{http.MethodGet, "/healthz"},
}

// FuzzServeHandlers drives the daemon's handlers in process with hostile
// sweep ids, ?point= values and bodies. The server has no cache and its
// points finish at once; one valid sweep is already done, so realID sends
// a request to a sweep that exists. Whatever the input, no handler panics,
// the status is one the API documents, every JSON body decodes, a
// submission is refused with 400 exactly when exp.ParseSweepRequest refuses
// its body (memo hit or not), and /healthz still answers 200. Plain
// `go test` replays the seeds; CI fuzzes it briefly (-fuzz
// '^FuzzServeHandlers$' -fuzztime 10s).
func FuzzServeHandlers(f *testing.F) {
	srv, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	instantPoints(srv)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(oneSpec("real"))))
	var st statusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted {
		f.Fatalf("submit: %d, %v", w.Code, err)
	}
	realID := st.ID
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+realID+"/events", nil))
	if !bytes.Contains(w.Body.Bytes(), []byte(`"state":"done"`)) {
		f.Fatalf("the setup sweep did not finish:\n%s", w.Body.Bytes())
	}

	for route := range fuzzRoutes {
		f.Add(uint8(route), true, "", "0", []byte(nil))
	}
	f.Add(uint8(0), false, "", "", []byte(oneSpec("fresh")))
	f.Add(uint8(0), false, "", "", []byte(`{"specs":[{"Name":"p","Policy":"DT","Scale":1}]}`))
	f.Add(uint8(0), false, "", "", []byte(`{"specs":`))
	f.Add(uint8(1), false, "sw-001-", "", []byte(nil))
	f.Add(uint8(2), false, "../healthz", "", []byte(nil))
	f.Add(uint8(3), false, "%00\x00", "", []byte(nil))
	f.Add(uint8(4), true, "", "-1", []byte(nil))
	f.Add(uint8(4), true, "", "99999999999999999999", []byte(nil))
	f.Add(uint8(4), true, "", "1", []byte(nil))
	f.Add(uint8(5), false, ".", "", []byte(nil))
	f.Add(uint8(0), false, "", "", []byte(oneSpec("real")))     // the setup sweep's body: a memo hit
	f.Add(uint8(0), false, "", "", []byte(oneSpec("real")+"]")) // trailing data: 400

	allowed := map[int]bool{200: true, 202: true, 400: true, 404: true, 409: true, 413: true, 429: true}
	f.Fuzz(func(t *testing.T, route uint8, useReal bool, id, point string, body []byte) {
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		if useReal {
			id = realID
		}
		// Path cleaning redirects an empty, "." or ".." segment before any
		// handler sees it, so the id is always one segment of its own.
		switch id = url.PathEscape(id); id {
		case "", ".", "..":
			id = "_" + id
		}
		target := strings.Replace(rt.path, "{id}", id, 1) + "?point=" + url.QueryEscape(point)
		req := httptest.NewRequest(rt.method, target, bytes.NewReader(body))
		ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
		defer cancel()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req.WithContext(ctx))
		if !allowed[w.Code] {
			t.Fatalf("%s %s: status %d\n%s", rt.method, target, w.Code, w.Body.Bytes())
		}
		if rt.method == http.MethodPost {
			_, err := exp.ParseSweepRequest(body)
			if refused := w.Code == http.StatusBadRequest; refused != (err != nil) {
				t.Fatalf("POST of %q: %d, while ParseSweepRequest says %v", body, w.Code, err)
			}
		}
		if w.Header().Get("Content-Type") == "application/json" && !json.Valid(w.Body.Bytes()) {
			t.Fatalf("%s %s: %d with a JSON body that does not decode: %q", rt.method, target, w.Code, w.Body.Bytes())
		}
		w = httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("after %s %s: /healthz answers %d", rt.method, target, w.Code)
		}
	})
}
