package job

import (
	"fmt"
	"sync"
	"time"

	"dnnperf/internal/mpi"
	"dnnperf/internal/train"
)

// Fleet is one staged live gang and the only runner of its ranks: NewFleet
// builds raw world → per-rank mpi.FaultTransport → tuned *mpi.Comm, Run fans
// the ranks out through train.Supervise (a doomed rank is the same loop with
// a death step in its config), and Restart relaunches a killed rank as a
// joiner in its old slot. The job backends, the scenario harness and the experiment runner
// all launch through it. A Fleet is single-use: one staging, one Run.
type Fleet struct {
	spec *Spec
	// rejoin stages a fresh raw endpoint for a slot whose previous
	// incarnation has stopped: a drained in-process mailbox set, or a new
	// socket endpoint that finds the job through rank 0's retained
	// rendezvous listener.
	rejoin func(rank int) (*mpi.Comm, error)

	mu     sync.Mutex // guards the slot tables against a concurrent Rejoin
	comms  []*mpi.Comm
	faults []*mpi.FaultTransport

	// Run state, shared with the joiners Restart launches.
	decorate  func(rank int, cfg *train.SupervisorConfig)
	wg        sync.WaitGroup
	results   []*train.SupervisorResult
	errs      []error
	exited    []chan struct{} // closed when the slot's first incarnation returns
	restarted []sync.Once
}

// NewFleet stages spec's gang over transport "inproc" (goroutines over an
// in-process world) or "tcp" (real loopback sockets, the transport mpirun's
// worker processes use). A zero spec.RecvTimeout becomes 500ms inproc;
// tcp deadlines are spec.TCPOptions.
func NewFleet(spec *Spec, transport string) (*Fleet, error) {
	n := spec.Ranks()
	f := &Fleet{
		spec:   spec,
		comms:  make([]*mpi.Comm, n),
		faults: make([]*mpi.FaultTransport, n),
	}
	raw := make([]*mpi.Comm, n)
	switch transport {
	case "inproc":
		rt := spec.RecvTimeout.D()
		if rt == 0 {
			rt = 500 * time.Millisecond
		}
		w, err := mpi.NewWorldOpts(n, mpi.WorldOptions{RecvTimeout: rt})
		if err != nil {
			return nil, err
		}
		for r := range raw {
			raw[r] = w.Comm(r)
		}
		f.rejoin = func(rank int) (*mpi.Comm, error) { return w.Rejoin(rank), nil }
	case "tcp":
		opts := spec.TCPOptions()
		var err error
		if raw, err = mpi.StartLocalTCPJobOpts(n, opts); err != nil {
			return nil, err
		}
		root := raw[0].PeerAddrs()[0]
		f.rejoin = func(rank int) (*mpi.Comm, error) {
			return mpi.RejoinTCP(rank, n, root, "127.0.0.1:0", opts)
		}
	default:
		return nil, fmt.Errorf("job %s: transport %q has no live fleet (want inproc or tcp)", spec.Name, transport)
	}
	base := spec.FaultConfig()
	for r := range raw {
		var err error
		if f.comms[r], f.faults[r], err = spec.WrapComm(raw[r], base, nil); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Comm returns rank r's current communicator.
func (f *Fleet) Comm(r int) *mpi.Comm {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.comms[r]
}

// Fault returns rank r's current fault transport — after a Rejoin, the new
// incarnation's, so partitions, heals and fault-rate swaps always land on
// the endpoint that is actually sending.
func (f *Fleet) Fault(r int) *mpi.FaultTransport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults[r]
}

// Rejoin stages a fresh endpoint into rank's slot, the in-process analogue
// of a process restart; call it only after the slot's previous incarnation
// has stopped. The new fault transport starts from the slot's current fault
// rates (an earlier SetConfig outlives the crash) but from no partitions: a
// fresh process has none.
func (f *Fleet) Rejoin(rank int) (*mpi.Comm, error) {
	raw, err := f.rejoin(rank)
	if err != nil {
		return nil, err
	}
	comm, ft, err := f.spec.WrapComm(raw, f.Fault(rank).Config(), nil)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.comms[rank], f.faults[rank] = comm, ft
	f.mu.Unlock()
	return comm, nil
}

// Run is the one rank fan-out: a goroutine per slot, each running
// train.Supervise on the config the spec renders; a rank in kills gets that
// step as its DieAt, and dies after completing it. decorate, called once per
// incarnation before it starts (Restart joiners included, with cfg.Joiner
// already set), layers the caller's OnStep, Telemetry, Tracer and HaltAt on
// top. Run returns when every rank and joiner has, and
// every communicator is closed by then.
//
// The per-slot errors come back verbatim; a killed rank's is nil.
// Result.PerRank[r] is non-nil exactly for the survivors — slots whose
// latest incarnation ran to the end without error, so a readmitted joiner
// speaks for a killed rank — and the lowest of them speaks for the job: its
// view fills the Result summary, which stays zero when nobody survived.
func (f *Fleet) Run(kills map[int]int64, decorate func(rank int, cfg *train.SupervisorConfig)) (*Result, []error) {
	n := len(f.comms)
	f.decorate = decorate
	f.results = make([]*train.SupervisorResult, n)
	f.errs = make([]error, n)
	f.exited = make([]chan struct{}, n)
	f.restarted = make([]sync.Once, n)
	for r := range f.exited {
		f.exited[r] = make(chan struct{})
	}
	for r := 0; r < n; r++ {
		cfg := f.spec.SupervisorConfig(f.comms[r])
		if step, doomed := kills[r]; doomed {
			cfg.DieAt = step
		}
		decorate(r, &cfg)
		f.wg.Add(1)
		go func(r int) {
			defer f.wg.Done()
			defer close(f.exited[r])
			f.supervise(r, cfg)
		}(r)
	}
	f.wg.Wait()

	res := &Result{PerRank: f.results}
	for r, pr := range f.results {
		if f.errs[r] != nil || pr.Outcome == train.OutcomeKilled {
			f.results[r] = nil
		}
	}
	for _, low := range f.results {
		if low == nil {
			continue
		}
		res.Outcome = low.Outcome.String()
		res.FinalStep = low.FinalStep
		res.WorldSize = low.WorldSize
		res.WeightsCRC = low.WeightsCRC
		res.Recoveries = len(low.Recoveries)
		res.Regrows = len(low.Regrows)
		res.Preempted = low.Outcome == train.OutcomePreempted
		res.ImagesPerSec = train.Throughput(low.Steps)
		res.Bottleneck, res.CommFrac = attributeBottleneck(low.Steps)
		break
	}
	return res, f.errs
}

// Restart relaunches rank as a joiner once its first incarnation has
// returned: a fresh endpoint through Rejoin, then the supervisor's admission
// loop, and — if readmitted — training to the end like everyone else. Call
// it from a running rank's step hook (Run is then still waiting, and waits
// for the joiner too); only the first call per rank launches anything.
func (f *Fleet) Restart(rank int) {
	f.restarted[rank].Do(func() {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			<-f.exited[rank]
			comm, err := f.Rejoin(rank)
			if err != nil {
				f.errs[rank] = fmt.Errorf("job %s: restart rank %d: %w", f.spec.Name, rank, err)
				return
			}
			cfg := f.spec.SupervisorConfig(comm)
			cfg.Joiner = true
			f.decorate(rank, &cfg)
			f.supervise(rank, cfg)
		}()
	})
}

// supervise is the one goroutine body: every incarnation of every slot runs
// train.Supervise on its decorated config, then closes its communicator.
func (f *Fleet) supervise(rank int, cfg train.SupervisorConfig) {
	f.results[rank], f.errs[rank] = train.Supervise(cfg)
	// The run's outcome is already recorded, and an aborted endpoint only
	// reports that it was closed before: nothing to do with this error.
	_ = cfg.Comm.Close()
}
