package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"snic/internal/obs"
)

// daemon is one snicd process serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	setup  time.Duration // launch → serving, bootstrap config applied
	logged chan struct{} // closed once the stderr copier has finished
}

// readyPrefix is the line snicd logs once its bootstrap config is
// applied and its listener is open.
const readyPrefix = "snicd: fleet control plane on "

// startDaemon launches snicd with the bootstrap config at cfgPath and
// waits until it serves.
func startDaemon(snicd, cfgPath string, seed uint64) (*daemon, error) {
	cmd := exec.Command(snicd, "-listen", "127.0.0.1:0", "-seed", fmt.Sprint(seed), "-config", cfgPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start snicd: %w", err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	rd := bufio.NewReader(stderr)
	for {
		line, err := rd.ReadString('\n')
		if strings.HasPrefix(line, readyPrefix) {
			d.setup = time.Since(start)
			addr, _, _ := strings.Cut(strings.TrimPrefix(line, readyPrefix), " ")
			d.base = addr
			break
		}
		if line != "" {
			fmt.Fprint(os.Stderr, line)
		}
		if err != nil {
			_ = cmd.Process.Kill() // already failing; Wait below reports the exit
			_ = cmd.Wait()
			return nil, fmt.Errorf("snicd exited before serving: %w", err)
		}
	}
	go func() {
		defer close(d.logged)
		_, _ = io.Copy(os.Stderr, rd) // diagnostics only
	}()
	return d, nil
}

// stop terminates the daemon and returns its peak RSS (MB) and CPU time.
func (d *daemon) stop() (rssMB, cpuS float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	<-d.logged
	// snicd has no signal handler, so SIGTERM ends it with that signal.
	if err := d.cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return 0, 0, err
		}
	}
	rssMB, cpuS = usage(d.cmd.ProcessState)
	return rssMB, cpuS, nil
}

// usage returns a finished process's peak RSS in MB and its user+system
// CPU seconds.
func usage(ps *os.ProcessState) (rssMB, cpuS float64) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rssMB, (ps.UserTime() + ps.SystemTime()).Seconds()
}

// client drives snicd over one keep-alive connection; dials counts the
// connections it opened.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	var dialer net.Dialer
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return c
}

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fleetPass is one closed-loop pass of the script against a daemon.
type fleetPass struct {
	cost
	lat         map[string][]float64 // round trip ms per class
	attempted   int
	failed      int
	oper, stats string // final /v1/oper and /v1/oper/stats bodies
	counts      fleetCounts
	tlbFills    float64
	tlbMisses   float64
}

// driveFleet sends the script to the daemon at base, each request after
// the previous reply, over one connection. With traced set it also
// decodes every burst and churn reply into per-layer counts and reads
// the TLB counters from /v1/metrics.
func driveFleet(base string, script []request, traced bool) (fleetPass, error) {
	c := newClient(base)
	defer c.close()
	p := fleetPass{lat: map[string][]float64{}}
	start := time.Now()
	for _, rq := range script {
		t := time.Now()
		code, body, err := c.do(rq.method, rq.path, rq.body)
		d := time.Since(t)
		p.attempted++
		if err != nil {
			return p, fmt.Errorf("%s %s: %w", rq.method, rq.path, err)
		}
		if code != rq.want {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d, want %d: %s", rq.method, rq.path, code, rq.want, body)
			continue
		}
		if !rq.prefill {
			p.lat[rq.class] = append(p.lat[rq.class], float64(d.Nanoseconds())/1e6)
		}
		if traced {
			if err := p.counts.observe(rq.class, body); err != nil {
				return p, err
			}
		}
	}
	p.wallS = time.Since(start).Seconds()

	get := func(path string) (string, error) {
		code, body, err := c.do("GET", path, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", path, code)
		}
		return string(body), err
	}
	var err error
	if p.oper, err = get("/v1/oper"); err != nil {
		return p, err
	}
	if p.stats, err = get("/v1/oper/stats"); err != nil {
		return p, err
	}
	if traced {
		text, err := get("/v1/metrics")
		if err != nil {
			return p, err
		}
		dump, err := obs.ParseDump(strings.NewReader(text))
		if err != nil {
			return p, fmt.Errorf("parse /v1/metrics: %w", err)
		}
		for key, v := range dump {
			f := strings.Fields(key) // kind device owner component name
			if len(f) == 5 && f[0] == "counter" && f[3] == "tlb" {
				switch f[4] {
				case "fills":
					p.tlbFills += float64(v)
				case "misses":
					p.tlbMisses += float64(v)
				}
			}
		}
	}
	if n := c.dials.Load(); n != 1 {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: pass opened %d connections, want 1\n", n)
	}
	return p, nil
}
