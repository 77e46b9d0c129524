package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vcprof/internal/live"
	"vcprof/internal/service"
)

// TestDriveRemoteGivesTheSessionBack pins the slot contract: a daemon
// frees a session's slot only at EOS or DELETE, so a drive that created
// a session and then failed must DELETE it — exactly once, by the id the
// create returned.
func TestDriveRemoteGivesTheSessionBack(t *testing.T) {
	const id = "sess-1"
	var (
		mu      sync.Mutex
		feeds   int
		deleted []string
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusCreated, service.SessionCreateResp{ID: id})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/frames", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		feeds++
		n := feeds
		mu.Unlock()
		if n > 1 {
			service.WriteError(w, http.StatusServiceUnavailable, "shard gone")
			return
		}
		service.WriteJSON(w, http.StatusOK, service.SessionFeedResp{ID: r.PathValue("id")})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		deleted = append(deleted, r.PathValue("id"))
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := live.SessionSpec{Frames: 24}
	_, err := driveRemote(context.Background(), service.Client{Base: srv.URL, HTTP: srv.Client()}, &spec, 8)
	if err == nil {
		t.Fatal("drive succeeded although its second feed failed")
	}
	mu.Lock()
	defer mu.Unlock()
	if feeds != 2 {
		t.Fatalf("%d feeds, want 2 (the drive stops at the failed one)", feeds)
	}
	if len(deleted) != 1 || deleted[0] != id {
		t.Fatalf("DELETEs %q, want exactly one of %q", deleted, id)
	}
}
