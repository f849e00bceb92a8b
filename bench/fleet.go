package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is a running set of serving processes: one pcserved node, or
// pcfront over three nodes.
type fleet struct {
	// target is the base URL load is sent to: the node, or the front.
	target string
	// nodes are the pcserved base URLs, for warm-up and direct answers.
	nodes []string
	// scraped are the base URLs whose /metrics the benchmark reads.
	scraped []string
	// pids are the serving processes' ids, for /proc accounting; empty
	// for an in-process fleet.
	pids []int
	stop func()
}

// starter brings up a fleet; cluster selects pcfront over three nodes.
type starter func(cluster bool) (*fleet, error)

// clusterNodes is the node count behind pcfront.
const clusterNodes = 3

// buildBinaries builds pcserved and pcfront from the checkout in the
// working directory into dir.
func buildBinaries(dir string) error {
	for _, name := range []string{"pcserved", "pcfront"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}
	return nil
}

// processStarter spawns the built binaries as child processes on
// loopback with their production defaults.
func processStarter(dir string) starter {
	return func(cluster bool) (*fleet, error) {
		var procs []*exec.Cmd
		stop := func() { stopProcesses(procs) }
		spawn := func(name string, args ...string) (string, error) {
			addr, err := freeAddr()
			if err != nil {
				return "", err
			}
			cmd := exec.Command(filepath.Join(dir, name), append([]string{"-addr", addr}, args...)...)
			// The children must not outlive the benchmark if it is killed.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			var logs bytes.Buffer
			cmd.Stderr = &logs
			if err := cmd.Start(); err != nil {
				return "", fmt.Errorf("starting %s: %w", name, err)
			}
			procs = append(procs, cmd)
			base := "http://" + addr
			if err := waitReady(base); err != nil {
				return "", fmt.Errorf("%s: %w (log: %s)", name, err, strings.TrimSpace(logs.String()))
			}
			return base, nil
		}
		f := &fleet{stop: stop}
		n := 1
		if cluster {
			n = clusterNodes
		}
		for i := 0; i < n; i++ {
			base, err := spawn("pcserved")
			if err != nil {
				stop()
				return nil, err
			}
			f.nodes = append(f.nodes, base)
		}
		f.target, f.scraped = f.nodes[0], f.nodes
		if cluster {
			base, err := spawn("pcfront", "-backends", strings.Join(f.nodes, ","))
			if err != nil {
				stop()
				return nil, err
			}
			f.target, f.scraped = base, append(append([]string(nil), f.nodes...), base)
		}
		for _, c := range procs {
			f.pids = append(f.pids, c.Process.Pid)
		}
		return f, nil
	}
}

// stopProcesses sends SIGTERM (the binaries drain gracefully), waits,
// and kills any process still alive after ten seconds.
func stopProcesses(procs []*exec.Cmd) {
	for _, c := range procs {
		c.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range procs {
		done := make(chan struct{})
		go func() {
			c.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.Process.Kill()
			<-done
		}
	}
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls GET /healthz until it answers 200.
func waitReady(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("not ready after 15s")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuTicks sums utime and stime, in clock ticks, over the processes.
func cpuTicks(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; fields count from after it.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		for _, f := range fields[11:13] { // utime, stime (fields 14 and 15)
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

// sampleCPU reads the processes' CPU time at the start of a phase of
// length d and at each of its n window boundaries; the returned
// function waits for the phase to end and gives the ticks per window.
func sampleCPU(pids []int, d time.Duration, n int) func() ([]int64, error) {
	type reading struct {
		ticks []int64
		err   error
	}
	out := make(chan reading, 1)
	start := time.Now()
	go func() {
		ticks := make([]int64, n)
		prev, err := cpuTicks(pids)
		for k := 0; k < n && err == nil; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k+1) / time.Duration(n))))
			var now int64
			if now, err = cpuTicks(pids); err == nil {
				ticks[k], prev = now-prev, now
			}
		}
		out <- reading{ticks, err}
	}()
	return func() ([]int64, error) {
		r := <-out
		return r.ticks, r.err
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// on every Linux architecture the benchmark runs on.
const clockTick = 10 * time.Millisecond

// peakRSS sums VmHWM, in bytes, over the processes.
func peakRSS(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err == nil {
					total += kb << 10
				}
			}
		}
		f.Close()
	}
	return total, nil
}
