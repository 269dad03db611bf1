package server

import (
	"context"
	"testing"

	"mpcspanner/internal/oracle"
)

type nopBackend struct{}

func (nopBackend) QueryMany(_ context.Context, pairs []oracle.Pair) ([]float64, error) {
	return make([]float64, len(pairs)), nil
}

// TestRunServerHasConnectionTimeouts pins that the server Run serves on
// cuts off slow-header clients and idle keep-alive connections.
func TestRunServerHasConnectionTimeouts(t *testing.T) {
	hs := New(Config{Backend: nopBackend{}}).httpServer()
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 || hs.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}
}
