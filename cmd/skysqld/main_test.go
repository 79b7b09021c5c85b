package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected pins the header timeout: a client that
// starts a request and never finishes its headers is disconnected once
// the timeout passes, instead of holding the connection open.
func TestSlowHeadersDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler(), 100*time.Millisecond)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: skysqld\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection well before this deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v with unfinished headers", time.Since(start))
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler(), readHeaderTimeout)
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Errorf("header timeout %v, idle timeout %v, max header bytes %d: all must be set",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("read timeout %v, write timeout %v: both must stay unset for large uploads and long queries",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}
