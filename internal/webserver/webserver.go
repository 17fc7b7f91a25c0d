// Package webserver implements the latency-sensitive workload of §3.7: a
// SPECWeb-like closed-loop web serving benchmark.
//
// A fixed population of connections (the paper used 440, split across two
// client machines) each issues a request, waits for the response, thinks for
// an exponentially distributed time, and repeats. Each request is serviced in
// two stages, reproducing the interrupt path the paper describes in §3.1: a
// kernel-level network thread first runs to handle the interrupt (and is
// never injected under the default policy), then hands the request to a
// user-level worker thread that performs the application work.
//
// Quality of service follows SPECWeb's three thresholds: a response within
// 3 s is "good", within 5 s "tolerable", and anything slower "fail". The
// closed loop is what couples Dimetrodon to temperature here: stretching
// responses lowers each connection's issue rate, removing work (and heat)
// from the system — until queueing saturates and QoS collapses (Figure 6).
package webserver

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/units"
)

// Config sizes the benchmark. DefaultConfig reproduces the paper's setup:
// ~15–25 % per-core load and a ≈6 °C unconstrained temperature rise.
type Config struct {
	Connections int
	// ThinkTime is the mean of the exponential think-time distribution.
	ThinkTime units.Time
	// KernelWork is the interrupt-path CPU demand per request
	// (reference-seconds).
	KernelWork float64
	// ServiceWorkMean is the mean user-level CPU demand per request; the
	// demand is exponentially distributed, floored at ServiceWorkMin.
	ServiceWorkMean float64
	ServiceWorkMin  float64
	// ServicePowerFactor is the activity factor of request processing
	// (web serving is branchy integer work, cooler than cpuburn).
	ServicePowerFactor float64
	// Workers is the number of user-level worker threads.
	Workers int
	// Good and Tolerable are the SPECWeb QoS thresholds.
	Good      units.Time
	Tolerable units.Time
	// Warmup discards requests completing before this time from QoS and
	// rate statistics.
	Warmup units.Time
}

// DefaultConfig returns the paper's eCommerce-like configuration.
func DefaultConfig() Config {
	return Config{
		Connections:        440,
		ThinkTime:          12 * units.Second,
		KernelWork:         0.0012,
		ServiceWorkMean:    0.024,
		ServiceWorkMin:     0.004,
		ServicePowerFactor: 1.0,
		Workers:            16,
		Good:               3 * units.Second,
		Tolerable:          5 * units.Second,
		Warmup:             20 * units.Second,
	}
}

// request tracks one in-flight request.
type request struct {
	conn    int
	arrived units.Time
	demand  float64
}

// Stats summarises completed requests.
type Stats struct {
	Completed    int
	Good         int
	Tolerable    int // includes Good
	Fail         int
	MeanLatency  units.Time
	MaxLatency   units.Time
	P95Latency   units.Time
	P99Latency   units.Time
	Throughput   float64 // completed requests per second (post-warmup)
	measuredSpan units.Time
}

// GoodFraction returns the fraction of completed requests meeting the "good"
// threshold (1.0 when nothing completed, so an idle baseline scores perfect).
func (s Stats) GoodFraction() float64 {
	if s.Completed == 0 {
		return 1
	}
	return float64(s.Good) / float64(s.Completed)
}

// TolerableFraction returns the fraction meeting the "tolerable" threshold.
func (s Stats) TolerableFraction() float64 {
	if s.Completed == 0 {
		return 1
	}
	return float64(s.Tolerable) / float64(s.Completed)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("completed=%d good=%.1f%% tolerable=%.1f%% mean=%v max=%v rate=%.1f/s",
		s.Completed, 100*s.GoodFraction(), 100*s.TolerableFraction(), s.MeanLatency, s.MaxLatency, s.Throughput)
}

// Server is a running web-serving benchmark bound to a machine.
type Server struct {
	cfg Config
	m   *machine.Machine
	rng *rng.Source

	kernelQ []request // requests awaiting interrupt handling
	readyQ  []request // requests awaiting a worker
	kthread *sched.Thread
	workers []*sched.Thread
	// arrivals holds each connection's one pending arrival event, bound
	// once and re-armed after every think time (the loop is closed, so a
	// connection never has two requests in flight).
	arrivals []simclock.Event

	// per-worker current request, by worker index
	current []request
	busy    []bool

	// kernel thread's in-flight request
	kcur      request
	khave     bool
	latSum    units.Time
	latencies []float64 // response times in seconds, post-warmup
	stats     Stats
	started   units.Time
}

// New attaches a web-serving benchmark to m. Spawning happens immediately;
// the connections issue their first requests at randomised offsets within
// one think time to avoid a thundering herd at t=0.
func New(m *machine.Machine, cfg Config) *Server {
	if cfg.Connections <= 0 || cfg.Workers <= 0 {
		panic("webserver: need connections and workers")
	}
	s := &Server{
		cfg:     cfg,
		m:       m,
		rng:     m.RNG.Split(),
		current: make([]request, cfg.Workers),
		busy:    make([]bool, cfg.Workers),
		started: m.Now(),
	}
	// Kernel-level network thread: handles "interrupts" (arrivals).
	s.kthread = m.Sched.Spawn(sched.ProgramFunc(s.kernelNext), sched.SpawnConfig{
		Name:        "netisr",
		Kernel:      true,
		Priority:    sched.PriorityKernel,
		PowerFactor: 0.55,
	})
	for i := 0; i < cfg.Workers; i++ {
		idx := i
		s.workers = append(s.workers, m.Sched.Spawn(sched.ProgramFunc(func(now units.Time) sched.Action {
			return s.workerNext(idx, now)
		}), sched.SpawnConfig{
			Name:        fmt.Sprintf("httpd-%d", i),
			ProcessID:   1,
			PowerFactor: cfg.ServicePowerFactor,
		}))
	}
	s.arrivals = make([]simclock.Event, cfg.Connections)
	for c := range s.arrivals {
		conn := c
		e := &s.arrivals[c]
		e.Label = "first-request"
		e.Fire = func(now units.Time) { s.arrive(conn, now) }
		offset := units.FromSeconds(s.rng.Float64() * cfg.ThinkTime.Seconds())
		m.Clock.Reschedule(e, m.Now()+offset)
	}
	return s
}

// Workers returns the worker threads (for per-process policy installation).
func (s *Server) Workers() []*sched.Thread { return s.workers }

// arrive is a network interrupt: a request hits the NIC.
func (s *Server) arrive(conn int, now units.Time) {
	demand := s.cfg.ServiceWorkMean * s.rng.ExpFloat64()
	if demand < s.cfg.ServiceWorkMin {
		demand = s.cfg.ServiceWorkMin
	}
	s.kernelQ = append(s.kernelQ, request{conn: conn, arrived: now, demand: demand})
	s.m.Sched.Wake(s.kthread)
}

// kernelNext is the network thread's program: pop an arrival, charge the
// interrupt-path work, then hand off to a worker.
func (s *Server) kernelNext(now units.Time) sched.Action {
	if s.khave {
		// Interrupt processing for kcur just finished: enqueue for
		// user-level service and wake an idle worker.
		s.khave = false
		s.readyQ = append(s.readyQ, s.kcur)
		s.wakeIdleWorker()
	}
	if len(s.kernelQ) == 0 {
		return sched.Block()
	}
	s.kcur = s.kernelQ[0]
	s.kernelQ = s.kernelQ[1:]
	s.khave = true
	return sched.Compute(s.cfg.KernelWork)
}

func (s *Server) wakeIdleWorker() {
	for _, w := range s.workers {
		if w.State() == sched.StateSleeping {
			s.m.Sched.Wake(w)
			return
		}
	}
}

// workerNext is a worker thread's program: complete the previous request (if
// any), then serve the next or block.
func (s *Server) workerNext(idx int, now units.Time) sched.Action {
	if s.busy[idx] {
		s.busy[idx] = false
		s.complete(s.current[idx], now)
	}
	if len(s.readyQ) == 0 {
		return sched.Block()
	}
	s.current[idx] = s.readyQ[0]
	s.readyQ = s.readyQ[1:]
	s.busy[idx] = true
	return sched.Compute(s.current[idx].demand)
}

// complete records a finished request and schedules the connection's next
// arrival after its think time (the closed loop).
func (s *Server) complete(r request, now units.Time) {
	lat := now - r.arrived
	if now-s.started >= s.cfg.Warmup {
		s.stats.Completed++
		s.latSum += lat
		s.latencies = append(s.latencies, lat.Seconds())
		if lat > s.stats.MaxLatency {
			s.stats.MaxLatency = lat
		}
		if lat <= s.cfg.Good {
			s.stats.Good++
		}
		if lat <= s.cfg.Tolerable {
			s.stats.Tolerable++
		}
	}
	think := units.FromSeconds(s.cfg.ThinkTime.Seconds() * s.rng.ExpFloat64())
	e := &s.arrivals[r.conn]
	e.Label = "next-request"
	s.m.Clock.Reschedule(e, s.m.Now()+think)
}

// Snapshot returns the QoS statistics accumulated since warmup; span should
// be the measurement end time (used for the throughput rate).
func (s *Server) Snapshot(now units.Time) Stats {
	st := s.stats
	st.Fail = st.Completed - st.Tolerable
	if st.Completed > 0 {
		st.MeanLatency = units.Time(int64(s.latSum) / int64(st.Completed))
		st.P95Latency = units.FromSeconds(analysis.Percentile(s.latencies, 95))
		st.P99Latency = units.FromSeconds(analysis.Percentile(s.latencies, 99))
	}
	span := now - s.started - s.cfg.Warmup
	if span > 0 {
		st.Throughput = float64(st.Completed) / span.Seconds()
	}
	st.measuredSpan = span
	return st
}

// QueueDepth returns the number of requests queued (both stages), a
// saturation indicator.
func (s *Server) QueueDepth() int { return len(s.kernelQ) + len(s.readyQ) }
