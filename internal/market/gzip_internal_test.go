package market

// White-box tests of the gzip layer's response writer: compression starts at
// the first body byte, so a response without a body keeps its status and
// carries no Content-Encoding.

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestGzipWriterStartsAtFirstByte(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		code    int
		body    string // decoded body; "" means identity and empty
	}{
		{"no body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		}, http.StatusNoContent, ""},
		{"nothing written", func(w http.ResponseWriter, r *http.Request) {}, http.StatusOK, ""},
		{"empty write", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write(nil)
		}, http.StatusAccepted, ""},
		{"body after status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "5")
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write(nil)
			_, _ = w.Write([]byte("hel"))
			_, _ = w.Write([]byte("lo"))
		}, http.StatusCreated, "hello"},
		{"body alone", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("hello"))
		}, http.StatusOK, "hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.Header.Set("Accept-Encoding", "gzip")
			rec := httptest.NewRecorder()
			gzipMiddleware(tc.handler).ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d", rec.Code, tc.code)
			}
			if v := rec.Header().Get("Vary"); v != "Accept-Encoding" {
				t.Errorf("Vary %q, want Accept-Encoding", v)
			}
			enc := rec.Header().Get("Content-Encoding")
			if tc.body == "" {
				if enc != "" || rec.Body.Len() != 0 {
					t.Fatalf("Content-Encoding %q with a %d-byte body, want identity and empty", enc, rec.Body.Len())
				}
				return
			}
			if enc != "gzip" || rec.Header().Get("Content-Length") != "" {
				t.Fatalf("Content-Encoding %q, Content-Length %q; want gzip and none",
					enc, rec.Header().Get("Content-Length"))
			}
			zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(zr); err != nil || string(got) != tc.body {
				t.Fatalf("decoded body %q (err %v), want %q", got, err, tc.body)
			}
		})
	}
}
