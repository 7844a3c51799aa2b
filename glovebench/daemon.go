package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/client"
)

// daemon is one gloved child process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	client  *client.Client
	base    string // http://host:port
	dataDir string

	drained chan struct{} // closed once the stderr reader hits EOF
	mu      sync.Mutex
	tail    []string // last stderr lines, for failure reports
}

const readyTimeout = 30 * time.Second

// startDaemon execs gloved with args plus a loopback listen address and
// returns once it prints its "listening on" line. dataDir, when set, is
// created fresh and removed again by stop.
func startDaemon(ctx context.Context, bin, dataDir string, args []string) (*daemon, error) {
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	args = append(args, "-addr", "127.0.0.1:0", "-access-log=false")
	d := &daemon{dataDir: dataDir, drained: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	// The daemon must not outlive glovebench, even when it is killed
	// outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gloved: %w", err)
	}
	addrc := make(chan string, 1)
	go d.readStderr(stderr, addrc)

	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("gloved exited before listening: %s", d.lastLines())
		}
		d.base = "http://" + addr
		c, err := client.New(d.base, client.WithRetries(0))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.client = c
		return d, nil
	case <-timer.C:
		d.stop()
		return nil, fmt.Errorf("gloved not listening after %v: %s", readyTimeout, d.lastLines())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// readStderr forwards the listen address once and keeps draining the
// daemon's log so it never blocks on a full pipe.
func (d *daemon) readStderr(r io.Reader, addrc chan<- string) {
	defer close(d.drained)
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if !sent {
			if _, addr, ok := strings.Cut(line, " listening on "); ok {
				addrc <- strings.TrimSpace(addr)
				sent = true
			}
		}
	}
	if !sent {
		close(addrc)
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop kills the daemon, waits for it and its log reader to end, and
// removes its data directory. A killed daemon needs no drain: every run
// starts from a fresh data directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			fmt.Fprintf(os.Stderr, "glovebench: waiting for gloved: %v\n", err)
		}
	}
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir) // best effort; the next run starts from RemoveAll too
	}
}
