package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReadBodySizedFromContentLength: a body declaring its length within
// the limit is read into a buffer of exactly that length; a chunked one
// is read whole; a declared length past the limit is not allocated, so a
// lying header costs nothing, and a body that really passes the limit
// fails with *http.MaxBytesError.
func TestReadBodySizedFromContentLength(t *testing.T) {
	const maxBody = 4096
	payload := bytes.Repeat([]byte("x"), 3000)
	read := func(body []byte, declared int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", io.MultiReader(bytes.NewReader(body)))
		r.ContentLength = declared
		return ReadBody(httptest.NewRecorder(), r, maxBody)
	}

	got, err := read(payload, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("declared length: %d bytes, %v", len(got), err)
	}
	if cap(got) != len(payload) {
		t.Fatalf("declared length: buffer of cap %d for %d bytes", cap(got), len(payload))
	}
	if got, err := read(payload, -1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("chunked: %d bytes, %v", len(got), err)
	}
	if got, err := read(payload, 1<<22); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("declared far past the limit: %d bytes, %v", len(got), err)
	}
	big := bytes.Repeat([]byte("x"), maxBody+1)
	for _, declared := range []int64{-1, maxBody + 1} {
		var mbe *http.MaxBytesError
		if _, err := read(big, declared); !errors.As(err, &mbe) {
			t.Fatalf("declared %d: oversize body read with %v, want *http.MaxBytesError", declared, err)
		}
	}
}
