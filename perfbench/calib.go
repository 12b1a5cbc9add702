package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	"sdntamper/internal/sim"
)

// The shared host this benchmark runs on changes speed from minute to
// minute: four runs of one synflood seed took 17 s to 26 s of host time
// within two minutes, with process CPU time moving alike, so the
// slowdown is slower execution, not waiting for a CPU. Host times are
// therefore scaled to a reference speed. A fixed calibration that shares
// no code with the program is timed between slices of every run; its
// median over the run, against refCalibration, gives the host's speed
// during that run.
//
// The calibration runs in a child process (this binary again, with
// calibratorEnv set), one at a time with the benchmark, which waits for
// it. Its own heap keeps its allocations out of the benchmark's
// allocation counts and GC pacing. The work is Go allocation, map and
// sort work like the simulator's, followed by a random pointer chase
// through 1 MB.
const (
	calibratorEnv = "PERFBENCH_CALIBRATOR"

	calNodes      = 20000
	calKeys       = 4096
	calEntries    = 256 << 10 // 1 MB of uint32
	calChaseSteps = 100000

	// calEvents is how many kernel events run between two calibrations:
	// 35 to 110 calibrations a run on the workloads here.
	calEvents = 20000

	// refCalibration is the calibration's time at the reference speed:
	// about its median on the 2-vCPU shared Xeon VM the first trajectory
	// point was measured on. A time in reference seconds is what that
	// host takes when it runs at that speed.
	refCalibration = 5 * time.Millisecond
)

// serveCalibrations is the child's side: for every byte read, one
// calibration, answered with its duration in nanoseconds. It returns at
// the end of its input.
func serveCalibrations(in io.Reader, out io.Writer) error {
	w := newCalWork()
	var req [1]byte
	var resp [8]byte
	for {
		if _, err := io.ReadFull(in, req[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		runtime.GC()
		binary.LittleEndian.PutUint64(resp[:], uint64(w.run()))
		if _, err := out.Write(resp[:]); err != nil {
			return err
		}
	}
}

type calWork struct {
	chain []uint32 // one random cycle through every entry
	pos   uint32
	keep  *calNode
}

type calNode struct {
	key  uint64
	next *calNode
	pad  [5]uint64
}

func newCalWork() *calWork {
	chain := make([]uint32, calEntries)
	for i := range chain {
		chain[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so the chase visits every entry.
	rng := rand.New(rand.NewSource(1))
	for i := len(chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		chain[i], chain[j] = chain[j], chain[i]
	}
	return &calWork{chain: chain}
}

// run does the same work every time and times it.
func (w *calWork) run() time.Duration {
	t := time.Now()
	m := make(map[uint64]*calNode, calKeys)
	var head *calNode
	x := uint64(7)
	for i := 0; i < calNodes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &calNode{key: x, next: head}
		head = n
		m[x%calKeys] = n
		if v, ok := m[(x>>3)%calKeys]; ok {
			v.pad[0]++
		}
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	p := w.pos
	for i := 0; i < calChaseSteps; i++ {
		p = w.chain[p]
	}
	w.pos = p
	w.keep = head
	return time.Since(t)
}

// calibrator is the benchmark's side of the child process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.Reader
}

var (
	calMu     sync.Mutex
	calActive *calibrator
)

// theCalibrator starts the child process on first use.
func theCalibrator() (*calibrator, error) {
	calMu.Lock()
	defer calMu.Unlock()
	if calActive != nil {
		return calActive, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibratorEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	calActive = &calibrator{cmd: cmd, in: in, out: out}
	return calActive, nil
}

// stopCalibrator ends the child process, if one was started, and waits
// for it.
func stopCalibrator() error {
	calMu.Lock()
	defer calMu.Unlock()
	if calActive == nil {
		return nil
	}
	c := calActive
	calActive = nil
	c.in.Close()
	return c.cmd.Wait()
}

// measure has the child run one calibration and returns its time.
func (c *calibrator) measure() (time.Duration, error) {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	var resp [8]byte
	if _, err := io.ReadFull(c.out, resp[:]); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	return time.Duration(binary.LittleEndian.Uint64(resp[:])), nil
}

// hostSpeed calibrates during one run: once before it, once every
// calEvents kernel events and once after it. paused is the host time the
// calibrations took, which the run's timers leave out.
type hostSpeed struct {
	cal    *calibrator
	n      uint64
	points []time.Duration
	paused time.Duration
	err    error
}

func newHostSpeed() (*hostSpeed, error) {
	c, err := theCalibrator()
	if err != nil {
		return nil, err
	}
	return &hostSpeed{cal: c}, nil
}

// attach calibrates once and then after every calEvents events k runs.
func (h *hostSpeed) attach(k *sim.Kernel) {
	h.point()
	prev := k.StepHook()
	k.SetStepHook(func() {
		if prev != nil {
			prev()
		}
		if h.n++; h.n%calEvents == 0 {
			h.point()
		}
	})
}

func (h *hostSpeed) point() {
	if h.err != nil {
		return
	}
	t := time.Now()
	d, err := h.cal.measure()
	h.paused += time.Since(t)
	if err != nil {
		h.err = err
		return
	}
	h.points = append(h.points, d)
}

// factor converts the run's host seconds to reference seconds.
func (h *hostSpeed) factor() (float64, error) {
	if h.err != nil {
		return 0, h.err
	}
	p := append([]time.Duration(nil), h.points...)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	return float64(refCalibration) / float64(p[len(p)/2]), nil
}

// timeScaled times fn in reference seconds: its host time scaled by the
// mean of a calibration just before and one just after it.
func timeScaled(fn func()) (host, ref time.Duration, err error) {
	c, err := theCalibrator()
	if err != nil {
		return 0, 0, err
	}
	before, err := c.measure()
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	fn()
	host = time.Since(t)
	after, err := c.measure()
	if err != nil {
		return 0, 0, err
	}
	return host, time.Duration(float64(host) * float64(2*refCalibration) / float64(before+after)), nil
}
