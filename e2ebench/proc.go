package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned serving process: marketsim, or this binary's traced
// stack (serve mode). Both print a line "analysis <base-url> ..." once the
// analysis endpoint listens.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// spawn starts argv and waits for its analysis endpoint line. The server
// runs at a lower scheduling priority than the generator, so that on a
// saturated machine requests still leave on schedule and the server sees
// the offered load.
func spawn(argv []string, timeout time.Duration) (*server, error) {
	cmd := exec.Command("nice", append([]string{"-n", "10"}, argv...)...)
	cmd.Stderr = os.Stderr
	// The server dies with this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", argv[0], err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) >= 2 && f[0] == "analysis" && strings.HasPrefix(f[1], "http://") {
				found <- f[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	select {
	case s.base = <-found:
		return s, nil
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("%s exited before serving: %v", argv[0], err)
	case <-time.After(timeout):
		s.kill()
		return nil, fmt.Errorf("%s did not start within %s", argv[0], timeout)
	}
}

// terminate sends SIGTERM and waits for the process to exit, killing it
// after grace.
func (s *server) terminate(grace time.Duration) error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
		return err
	case <-time.After(grace):
		s.kill()
		return fmt.Errorf("process did not exit within %s of SIGTERM", grace)
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	err := <-s.done
	s.done <- err
}

// vmHWM reads the process's peak resident set in bytes.
func (s *server) vmHWM() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTime reads the user plus system CPU time the process has used.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at the third,
	// state; utime and stime are the 14th and 15th, in ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat; nil if
// unavailable.
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []int64
	for _, f := range strings.Fields(line)[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, n)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor gave to other guests
// between two cpuTicks readings (the eighth counter is steal).
func stealShare(a, b []int64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(float64(b[7]-a[7]), float64(total))
}

// firstScan polls base until one /api/scan answers 200.
func firstScan(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	body := []byte(`{"fields":["market"],"limit":1}`)
	for {
		resp, err := client.Post(base+"/api/scan", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("first scan: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeMetrics reads the Prometheus text of base's /metrics into a map.
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
