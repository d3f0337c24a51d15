package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"gridvo/internal/server"
)

// maxConns is the client connection limit of the service workloads.
const maxConns = 2

// service is an in-process gridvod on a loopback listener and a client
// limited to maxConns connections.
type service struct {
	srv    *server.Server
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startService builds the server with server.New, serves it on a fresh
// loopback port, and returns once GET /healthz answers — the program-side
// set-up of the service workloads.
func startService(cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{
		srv:  server.New(cfg),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ctx, ln, 10*time.Second) }()
	var health server.HealthResponse
	if status, err := s.do("GET", "/healthz", nil, &health); err != nil || status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d: %v", status, err)
	}
	return s, nil
}

// stop shuts the server down, drains its job workers, and waits for Serve
// to return.
func (s *service) stop() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and decodes a JSON reply into out (when non-nil
// and the status is 2xx).
func (s *service) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 || out == nil {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

// metrics fetches GET /metrics.
func (s *service) metrics() (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	status, err := s.do("GET", "/metrics", nil, &m)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("metrics: status %d", status)
	}
	return m, err
}

// repeatSetUp runs setUp k times, stopping every service but the last,
// and returns that one with the median set-up time in seconds. Garbage is
// collected before each set-up, so the collection of the state the
// previous service dropped is not timed in the next one.
func repeatSetUp(k int, setUp func() (*service, time.Duration, error)) (*service, float64, error) {
	var times []float64
	var svc *service
	for i := 0; i < k; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		var d time.Duration
		var err error
		if svc, d, err = setUp(); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return svc, median(times), nil
}
