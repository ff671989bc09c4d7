package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"morrigan/internal/fabric"
)

// TestWorkProtocolMismatchMessage points a worker at a coordinator that
// grants a lease under another protocol version. work returns the fabric
// package's error, which already names the package, and the line main
// prints for it carries the "fabric: " prefix exactly once.
func TestWorkProtocolMismatchMessage(t *testing.T) {
	const old = fabric.ProtocolVersion - 1
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"protocol":%d,"lease_id":"l1","key":"k","ttl_ms":30000}`, old)
	}))
	defer coord.Close()

	var stderr bytes.Buffer
	err := work([]string{"-coordinator", coord.URL, "-q"}, &stderr)
	if err == nil {
		t.Fatalf("work returned nil against a protocol-%d coordinator; stderr: %s", old, stderr.String())
	}
	got := message(err)
	want := fmt.Sprintf("fabric: protocol mismatch: coordinator speaks protocol %d, worker %d", old, fabric.ProtocolVersion)
	if got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
	if n := strings.Count(got, "fabric: "); n != 1 {
		t.Errorf("printed %q carries the fabric: prefix %d times, want once", got, n)
	}
}
