package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one strg-server child process on a fresh data directory.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string
	ctl  *http.Client // probes and scrapes, outside every measured loop

	logDone chan struct{}
	mu      sync.Mutex
	tail    []string // last stderr lines, for error reports
}

// startServer launches bin on an ephemeral loopback port over a new data
// directory and waits until /readyz answers 200.
func startServer(bin, dir string, extra ...string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, extra...)
	cmd := exec.Command(bin, args...)
	// If the benchmark dies without cleaning up, the kernel kills the
	// server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, dir: dir, ctl: &http.Client{Timeout: 30 * time.Second}, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	// The server logs one line per request; the pipe must be drained for
	// the whole life of the process or its writes block.
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if !sent && strings.Contains(line, "msg=listening") {
				if a := logField(line, "addr"); a != "" {
					addrc <- a
					sent = true
				}
			}
		}
	}()
	select {
	case a := <-addrc:
		s.base = "http://" + a
	case <-s.logDone:
		s.stop()
		return nil, fmt.Errorf("server exited before listening: %s", s.lastLog())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("server did not report its listen address within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready within 60s: %s", s.lastLog())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logField extracts key=value from a slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop kills the process, waits for it and its log reader to finish, and
// removes the data directory. The data is disposable, so there is no
// graceful drain to wait for.
func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
	}
	_ = s.cmd.Wait()
	<-s.logDone
	_ = os.RemoveAll(s.dir)
}

// statusMB reads one kB field of the process's /proc status, such as
// VmRSS (resident set now) or VmHWM (its high-water mark), in MB.
func (s *server) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected %s line %q", field, line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the resident set every rssEvery until stop closes and
// returns the samples. A read that fails ends the sampling early.
func (s *server) sampleRSS(stop <-chan struct{}) []float64 {
	var mb []float64
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	for {
		v, err := s.statusMB("VmRSS")
		if err != nil {
			return mb
		}
		mb = append(mb, v)
		select {
		case <-stop:
			return mb
		case <-t.C:
		}
	}
}

// rssEvery is the resident-set sampling interval over a measured window.
const rssEvery = 25 * time.Millisecond

func (s *server) scrape() (sample, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// getJSON fetches path on the control client into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// serverStats is the part of GET /v1/stats the validation compares.
type serverStats struct {
	Segments int
	OGs      int
}

// conn is one client connection: a transport that never opens a second
// socket, so each load-generating goroutine holds exactly one.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string, timeout time.Duration) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{c: &http.Client{Transport: tr, Timeout: timeout}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("%d %s", r.status, bytes.TrimSpace(r.body))
}

// post sends one request and reads the whole reply.
func (c *conn) post(ctx context.Context, path, ctype string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}
