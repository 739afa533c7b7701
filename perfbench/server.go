package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
	"github.com/paper-repro/ekbtree/pkg/ekbtree/wire"
)

const (
	tenant    = "bench"
	masterHex = "8f3a61c2d94e07b5a1c6e28d3f9b4057e6d1a2c3b4f5061728394a5b6c7d8e9f"
	// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
	// on every Linux architecture Go supports.
	clockTicks = 100
	drainWait  = 30 * time.Second
)

// server is one ekbtreed process serving the tenant from dir.
type server struct {
	dir     string
	cmd     *exec.Cmd
	addr    string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

func provision(bin, dir string) error {
	out, err := exec.Command(bin, "-data", dir, "-provision", tenant, "-master-hex", masterHex).CombinedOutput()
	if err != nil {
		return fmt.Errorf("provision tenant: %v: %s", err, out)
	}
	return nil
}

// startServer starts ekbtreed on dir with its default grouped durability
// and waits until it listens.
func startServer(bin, dir string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "server.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-data", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", conns))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{dir: dir, cmd: cmd, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.addr = string(b)
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("ekbtreed exited while starting: %v; log: %s", s.waitErr, s.logTail())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ekbtreed did not listen within 20s")
		}
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

func (s *server) dial(m ekbtree.Material) (*wire.Client, error) {
	c, err := wire.DialWithConfig(s.addr, wire.DialConfig{
		DialTimeout:  5 * time.Second,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Handshake(tenant, m.AuthKey); err != nil {
		c.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if err := c.Open(); err != nil {
		c.Close()
		return nil, fmt.Errorf("open tenant: %w", err)
	}
	return c, nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// drainWait.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal ekbtreed: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(drainWait):
		s.kill()
		return fmt.Errorf("ekbtreed did not drain within %v", drainWait)
	}
	if s.waitErr != nil {
		return fmt.Errorf("unclean drain: %v; log: %s", s.waitErr, s.logTail())
	}
	return nil
}

// kill ends the server without a drain and waits for it; for error paths.
func (s *server) kill() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(filepath.Join(s.dir, "server.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// tenantBytes is the on-disk size of the tenant's page files.
func tenantBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, tenant+".ekbt*"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	if n == 0 {
		return 0, fmt.Errorf("no tenant page file in %s", dir)
	}
	return n, nil
}

// procSample is a process's CPU time and I/O syscall counts.
type procSample struct {
	cpu          time.Duration
	syscr, syscw int64
	wchar        int64
}

func readProc(pid string) (procSample, error) {
	var p procSample
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return p, fmt.Errorf("parse /proc/%s/stat", pid)
	}
	p.cpu = time.Duration(ut+st) * time.Second / clockTicks
	io, err := readKV("/proc/" + pid + "/io")
	if err != nil {
		return p, err
	}
	p.syscr, p.syscw, p.wchar = io["syscr"], io["syscw"], io["wchar"]
	return p, nil
}

// readKV parses a /proc file of "name: number [unit]" lines.
func readKV(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if fs := strings.Fields(rest); len(fs) > 0 {
			if v, err := strconv.ParseInt(fs[0], 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// statusMB reads a kB field of /proc/<pid>/status, such as VmRSS, in MiB.
func statusMB(pid, field string) (float64, error) {
	st, err := readKV("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, ok := st[field]
	if !ok {
		return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
	}
	return float64(kb) / 1024, nil
}
