package cluster

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"time"

	"pallas/internal/metrics"
)

// ListenPrefix is the line a worker process prints to stderr once its
// listener is bound; the supervisor parses the address after it. Workers
// bind :0 and this line is how the ephemeral port travels back.
const ListenPrefix = "pallas: worker listening on "

// SupervisorOptions configures NewSupervisor.
type SupervisorOptions struct {
	// Binary is the pallas executable to spawn workers from.
	Binary string
	// Args are the worker subcommand arguments (e.g. "worker", "-addr",
	// "127.0.0.1:0", cache flags...). Every slot uses the same args.
	Args []string
	// Env is the child environment for first starts; nil inherits the
	// parent's.
	Env []string
	// RestartEnv, when non-nil, replaces Env for restarted workers. The
	// chaos harness uses it to clear PALLAS_FAILPOINTS: the first incarnation
	// is armed to crash, its replacement must not inherit the bomb.
	RestartEnv []string
	// MaxRestarts bounds how many times one slot is restarted after its
	// process dies. Default 2; negative means never restart.
	MaxRestarts int
	// RestartDelay is the pause before a restart. Default 200ms.
	RestartDelay time.Duration
	// OnUp is called (off the supervisor goroutine) with a worker's address
	// once it is listening — the coordinator's AddWorker.
	OnUp func(addr string)
	// OnDown is called when a worker process exits, with the address it had
	// (empty if it died before binding) — the coordinator's RemoveWorker.
	OnDown func(addr string, err error)
	// OnExhausted is called once when a slot's restart budget is spent and
	// the supervisor gives up on it, with the final exit error. A fleet
	// whose every slot is exhausted will never come back; the CLI surfaces
	// this as a terminal condition instead of waiting out WorkerlessGrace
	// in silence.
	OnExhausted func(slot int, err error)
	// Stderr receives the workers' stderr output (after the listen line);
	// nil discards it.
	Stderr io.Writer
	// Metrics receives the restart counter; nil means a registry of the
	// supervisor's own.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives supervisor progress lines.
	Logf func(format string, args ...any)
}

// Supervisor spawns and babysits local worker processes: it parses each
// worker's bound address from its stderr, reports up/down transitions, and
// restarts crashed workers a bounded number of times. Start spawns the
// fleet; Stop kills it.
type Supervisor struct {
	opts SupervisorOptions

	mu      sync.Mutex
	slots   []*workerSlot
	stopped bool
	wg      sync.WaitGroup

	mRestarts *metrics.Counter
}

type workerSlot struct {
	id int

	mu   sync.Mutex
	cmd  *exec.Cmd
	addr string
}

// NewSupervisor builds a supervisor; call Start to spawn workers.
func NewSupervisor(opts SupervisorOptions) *Supervisor {
	if opts.MaxRestarts == 0 {
		opts.MaxRestarts = 2
	}
	if opts.RestartDelay <= 0 {
		opts.RestartDelay = 200 * time.Millisecond
	}
	if opts.Stderr == nil {
		opts.Stderr = io.Discard
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Supervisor{
		opts:      opts,
		mRestarts: reg.Counter(metrics.MetricClusterWorkerRestarts, "worker processes restarted after a crash"),
	}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start spawns n worker slots. Each slot runs until its process has died
// MaxRestarts+1 times or Stop is called.
func (s *Supervisor) Start(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		slot := &workerSlot{id: len(s.slots)}
		s.slots = append(s.slots, slot)
		s.wg.Add(1)
		go s.runSlot(slot)
	}
}

// runSlot is one worker slot's lifecycle: spawn, report up, wait, report
// down, restart (bounded) with RestartEnv.
func (s *Supervisor) runSlot(slot *workerSlot) {
	defer s.wg.Done()
	for incarnation := 0; ; incarnation++ {
		if s.isStopped() {
			return
		}
		env := s.opts.Env
		if incarnation > 0 && s.opts.RestartEnv != nil {
			env = s.opts.RestartEnv
		}
		addr, waitErr := s.runWorkerOnce(slot, env)
		if s.opts.OnDown != nil && addr != "" {
			s.opts.OnDown(addr, waitErr)
		}
		if s.isStopped() {
			return
		}
		if incarnation >= s.opts.MaxRestarts || s.opts.MaxRestarts < 0 {
			s.logf("cluster: worker slot %d gave up after %d start(s): %v",
				slot.id, incarnation+1, waitErr)
			if s.opts.OnExhausted != nil {
				s.opts.OnExhausted(slot.id, waitErr)
			}
			return
		}
		s.mRestarts.Inc()
		s.logf("cluster: worker slot %d (%s) died (%v), restarting", slot.id, addr, waitErr)
		time.Sleep(s.opts.RestartDelay)
	}
}

// runWorkerOnce spawns one worker process and blocks until it exits,
// returning the address it bound ("" if it died first) and its exit error.
func (s *Supervisor) runWorkerOnce(slot *workerSlot, env []string) (string, error) {
	cmd := exec.Command(s.opts.Binary, s.opts.Args...)
	cmd.Env = env
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	slot.mu.Lock()
	slot.cmd = cmd
	slot.addr = ""
	slot.mu.Unlock()

	// Scan stderr until the listen line, then forward the rest.
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced {
				if rest, ok := strings.CutPrefix(line, ListenPrefix); ok {
					announced = true
					addrCh <- strings.TrimSpace(rest)
					continue
				}
			}
			fmt.Fprintln(s.opts.Stderr, line)
		}
		if !announced {
			addrCh <- ""
		}
	}()

	addr := <-addrCh
	if addr != "" {
		slot.mu.Lock()
		slot.addr = addr
		slot.mu.Unlock()
		s.logf("cluster: worker slot %d up at %s", slot.id, addr)
		if s.opts.OnUp != nil {
			s.opts.OnUp(addr)
		}
	}
	// Drain stderr to EOF before reaping: Wait closes the pipe, and calling
	// it with reads outstanding can discard the process's final lines (the
	// exec package documents this ordering). The scanner reaches EOF when
	// the process exits or closes stderr, so this does not outlive Wait's
	// own blocking.
	<-scanDone
	waitErr := cmd.Wait()
	return addr, waitErr
}

func (s *Supervisor) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// Kill SIGKILLs the worker currently bound to addr (the chaos harness's
// crowbar). Returns false if no live slot has that address.
func (s *Supervisor) Kill(addr string) bool {
	s.mu.Lock()
	slots := append([]*workerSlot(nil), s.slots...)
	s.mu.Unlock()
	for _, slot := range slots {
		slot.mu.Lock()
		cmd, a := slot.cmd, slot.addr
		slot.mu.Unlock()
		if a == addr && cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			return true
		}
	}
	return false
}

// Stop kills every worker process and waits for the slot goroutines.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopped = true
	slots := append([]*workerSlot(nil), s.slots...)
	s.mu.Unlock()
	for _, slot := range slots {
		slot.mu.Lock()
		if slot.cmd != nil && slot.cmd.Process != nil {
			slot.cmd.Process.Kill()
		}
		slot.mu.Unlock()
	}
	s.wg.Wait()
}
