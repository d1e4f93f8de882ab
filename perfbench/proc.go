package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one aggserve process the benchmark launched. Every proc is
// registered so that any exit path of the benchmark kills and reaps it.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}
	log  *os.File
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// startAggserve launches the aggserve binary on a free loopback port.
// Its log goes to <dir>/<name>.log. Pdeathsig takes it down with the
// benchmark even if the benchmark itself is killed.
func startAggserve(bin, dir, name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		logf.Close()
		close(p.done)
	}()
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// stop asks for a graceful shutdown and kills the process if it has not
// exited within the timeout.
func (p *proc) stop(timeout time.Duration) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(timeout):
	}
	p.kill()
}

// killAll reaps every process still running.
func killAll() {
	procsMu.Lock()
	list := make([]*proc, 0, len(procs))
	for p := range procs {
		list = append(list, p)
	}
	procsMu.Unlock()
	for _, p := range list {
		p.kill()
	}
}

// hwmMB reads a process's peak resident set (VmHWM) in MiB.
func hwmMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// peakRSS sums VmHWM over the given processes.
func peakRSS(ps ...*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		mb, err := hwmMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
