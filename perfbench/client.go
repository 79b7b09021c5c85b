package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a skysqld child process listening on loopback.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once
}

// startServer launches skysqld and waits until /healthz answers. The
// port is picked before skysqld binds it, so another socket can take it
// in between; a server that exits during start-up is retried on a fresh
// port, up to three times.
func startServer(bin string, client *http.Client) (*child, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *child
		if s, err = startOnce(bin, client); err == nil || !errors.Is(err, errExited) {
			return s, err
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err, "- retrying on another port")
	}
	return nil, err
}

var errExited = errors.New("skysqld exited during start-up")

func startOnce(bin string, client *http.Client) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port, "-cache-mb", strconv.Itoa(cacheMB))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting skysqld: %w", err)
	}
	s := &child{cmd: cmd, base: "http://127.0.0.1:" + port, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("%w: %v", errExited, err)
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("skysqld did not answer /healthz within 20s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks skysqld to drain and exit, killing it after 10s, and waits
// until the process has ended.
func (s *child) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (s *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading skysqld peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a loopback port: %w", err)
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// post sends one JSON body and reads the whole response into buf, which
// callers reuse so that reading responses makes no garbage.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// sample is the outcome of one request.
type sample struct {
	op     *op
	status int
	err    error
	at     time.Time     // send time (closed loop) or due time (open loop)
	lat    time.Duration // from at to the end of the response
	late   time.Duration // open loop: dispatch time minus due time
	durMS  float64       // the response's duration_ms (queries)
	rows   int           // the response's row_count (queries)
	body   []byte        // kept for answer checking; nil when byte-identical to a checked answer
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// answers keeps response bodies for the oracle. With dedup (only sound
// where no append changes a queried table), the first answer of each
// query is kept and a later answer whose rows are byte-identical to it
// needs no second check.
type answers struct {
	dedup bool
	mu    sync.Mutex
	seen  map[*query][]byte
}

// record fills s from its response body, copying the body when it must
// be kept (body is the caller's reused buffer).
func (a *answers) record(s *sample, body []byte) {
	keep := func() { s.body = append([]byte(nil), body...) }
	if !s.ok() {
		keep()
		return
	}
	if s.op.kind == opAppend {
		if !bytes.Contains(body, []byte(`"ok":true`)) {
			keep()
		}
		return
	}
	rows, meta, found := splitRows(body)
	if !found {
		keep() // malformed: the checker reports it
		return
	}
	s.durMS = jsonNumber(meta, `"duration_ms":`)
	s.rows = int(jsonNumber(meta, `"row_count":`))
	if !a.dedup {
		keep()
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ref, seen := a.seen[s.op.q]
	if seen && bytes.Equal(ref, rows) {
		return
	}
	keep()
	if !seen {
		a.seen[s.op.q], _, _ = splitRows(s.body)
	}
}

// splitRows returns the "rows" array of a /query response and the rest
// of the body after it.
func splitRows(body []byte) (rows, meta []byte, ok bool) {
	i := bytes.Index(body, []byte(`"rows":`))
	j := bytes.LastIndex(body, []byte(`,"row_count":`))
	if i < 0 || j < i {
		return nil, nil, false
	}
	return body[i:j], body[j:], true
}

// jsonNumber reads the number following key in b (0 when absent).
func jsonNumber(b []byte, key string) float64 {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0
	}
	rest := b[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return v
}

// do sends one op and records its outcome; lat is measured from start.
func do(c *http.Client, base string, o *op, a *answers, start time.Time, buf *bytes.Buffer) *sample {
	s := &sample{op: o, at: start}
	var body []byte
	s.status, body, s.err = post(c, base+o.path(), o.body(), buf)
	s.lat = time.Since(start)
	a.record(s, body)
	return s
}

// closedLoop sends ops one at a time from one client until the deadline.
func closedLoop(c *http.Client, base string, next func() *op, a *answers, deadline time.Time) []*sample {
	var out []*sample
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		o := next()
		out = append(out, do(c, base, o, a, time.Now(), &buf))
	}
	return out
}

// openLoop sends ops[i] at start + i/rate from a dispatcher feeding
// conns workers, and times each request from its due time, so a stall
// charges the wait it imposes on later requests.
func openLoop(c *http.Client, base string, ops []*op, rate float64, conns int, a *answers) []*sample {
	out := make([]*sample, len(ops))
	type job struct {
		i        int
		due      time.Time
		dispatch time.Time
	}
	jobs := make(chan job, len(ops)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				s := do(c, base, ops[j.i], a, j.due, &buf)
				s.late = j.dispatch.Sub(j.due)
				out[j.i] = s
			}
		}()
	}
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due, dispatch: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return out
}
