package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slicc"
)

// newHTTPClient returns a client holding at most two connections to the
// service: the load the benchmark offers never exceeds two.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// call is one HTTP request: body is JSON-encoded when non-nil, reqID rides
// as X-Request-ID when non-empty.
func call(ctx context.Context, hc *http.Client, method, url, reqID string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// callOK is call that treats any non-2xx status as an error.
func callOK(ctx context.Context, hc *http.Client, method, url, reqID string, body any) ([]byte, error) {
	code, b, err := call(ctx, hc, method, url, reqID, body)
	if err == nil && (code < 200 || code > 299) {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, url, code, b)
	}
	return b, err
}

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	b, err := callOK(ctx, hc, http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(b))
}

// sseEvent is one received stream event and when it arrived.
type sseEvent struct {
	ev slicc.SweepEvent
	at time.Time
}

// readSSE reads a sweep's event stream to its terminal event (or EOF),
// calling fn for each event as it arrives.
func readSSE(r io.Reader, fn func(sseEvent)) error {
	br := bufio.NewReader(r)
	var data strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if data.Len() == 0 {
				continue
			}
			var ev slicc.SweepEvent
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return fmt.Errorf("SSE data: %w", err)
			}
			data.Reset()
			fn(sseEvent{ev: ev, at: time.Now()})
			if ev.Type == slicc.SweepEventDone || ev.Type == slicc.SweepEventError {
				return nil
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
}

// startProfile starts fetching a CPU profile of secs seconds from a
// -pprof process and returns a function that waits for it. A failed fetch
// yields nil, which leaves the CPU shares at 0.
func startProfile(ctx context.Context, hc *http.Client, base string, secs int) func() []byte {
	var data []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		data, _ = callOK(ctx, hc, http.MethodGet, base+"/debug/pprof/profile?seconds="+strconv.Itoa(secs), "", nil)
	}()
	return func() []byte {
		<-done
		return data
	}
}

// heapMallocs reads the cumulative allocation count from a -pprof
// process's heap profile in its debug text form.
func heapMallocs(ctx context.Context, hc *http.Client, base string) (float64, error) {
	b, err := callOK(ctx, hc, http.MethodGet, base+"/debug/pprof/allocs?debug=1", "", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("heap profile without a Mallocs line")
}
