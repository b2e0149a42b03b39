package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Publisher periodically pushes this rank's live telemetry — a metrics
// Snapshot plus the trace events recorded since the previous push — to a
// sink, typically an mpi Send toward the rank hosting the metrics server.
// It is the feed that turns the end-of-job flight recorder into a live
// control room: bounded staleness (one Interval), near-zero coupling to the
// training hot path, and lossy by design (a failed or dropped push is
// counted and skipped, never retried, so a wedged server cannot
// back-pressure training).
//
// The steady-state push allocates almost nothing: the snapshot is taken
// into reusable maps (Registry.SnapshotInto), the event delta into a
// reusable slice (Tracer.AppendEventsSince), and the bundle is encoded into
// one of two preallocated buffers that cycle between the encode side and a
// dedicated push goroutine. When the push goroutine is still busy with the
// previous bundle (a slow or wedged sink), the periodic path drops the push
// and counts it under telemetry.dropped_pushes instead of blocking or
// piling up garbage.
//
// The publisher survives elastic shrink/restart without intervention when
// it publishes over the parent communicator: sub-communicators derived by
// Shrink reuse the parent transport, so the original rank numbering and
// routes stay valid for every survivor.
type Publisher struct {
	reg    *Registry
	tracer *Tracer

	sink func([]byte) error // nil pauses publishing
	rank int

	mu     sync.Mutex   // guards the encode scratch below
	cursor int          // tracer read position (AppendEventsSince)
	snap   Snapshot     // reusable snapshot scratch
	events []TraceEvent // reusable event-delta scratch

	free chan *bytes.Buffer // encode buffers not in flight (cap 2)
	pend chan pushReq       // encoded bundles awaiting the push goroutine

	publishes *Counter
	errors    *Counter
	dropped   *Counter

	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	pushStop chan struct{}
	pushDone chan struct{}
	stopped  atomic.Bool
	once     sync.Once
}

// pushReq is one encoded bundle handed to the push goroutine. errCh is set
// by the synchronous Publish path, which waits for the sink's verdict.
type pushReq struct {
	buf   *bytes.Buffer
	errCh chan error
}

// PublisherOptions configures a Publisher.
type PublisherOptions struct {
	// Interval is the push period (default 250ms) — the staleness bound of
	// the live view.
	Interval time.Duration
	// Rank stamps the published snapshots.
	Rank int
}

// DefaultPublishInterval is the default push period.
const DefaultPublishInterval = 250 * time.Millisecond

// NewPublisher starts the publish and push goroutines. reg may not be nil
// (there would be nothing to publish); tracer may be nil (pushes then carry
// no events). sink receives each encoded Bundle; it is only ever called
// from the push goroutine, one bundle at a time.
func NewPublisher(reg *Registry, tracer *Tracer, sink func([]byte) error, opts PublisherOptions) *Publisher {
	if opts.Interval <= 0 {
		opts.Interval = DefaultPublishInterval
	}
	p := &Publisher{
		reg:       reg,
		tracer:    tracer,
		sink:      sink,
		rank:      opts.Rank,
		free:      make(chan *bytes.Buffer, 2),
		pend:      make(chan pushReq, 1),
		publishes: reg.Counter("telemetry.publishes"),
		errors:    reg.Counter("telemetry.publish_errors"),
		dropped:   reg.Counter("telemetry.dropped_pushes"),
		interval:  opts.Interval,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		pushStop:  make(chan struct{}),
		pushDone:  make(chan struct{}),
	}
	p.free <- &bytes.Buffer{}
	p.free <- &bytes.Buffer{}
	go p.loop()
	go p.pushLoop()
	return p
}

// encode snapshots the registry and the trace delta into the reusable
// scratch and serializes the bundle into buf. The cursor advances even if a
// later stage fails or drops — the publisher is lossy, never repeating.
func (p *Publisher) encode(buf *bytes.Buffer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events, p.cursor = p.tracer.AppendEventsSince(p.events[:0], p.cursor)
	p.reg.SnapshotInto(&p.snap)
	p.snap.Rank = p.rank
	buf.Reset()
	return json.NewEncoder(buf).Encode(Bundle{Snapshot: p.snap, Events: p.events})
}

// Publish pushes one bundle now and waits for the sink's verdict: the full
// current snapshot plus the trace events recorded since the last push.
// Errors are counted and returned but the publisher keeps running. Must not
// be called after Stop.
func (p *Publisher) Publish() error {
	if p == nil || p.stopped.Load() {
		return nil
	}
	if p.sink == nil {
		return nil
	}
	buf := <-p.free
	if err := p.encode(buf); err != nil {
		p.free <- buf
		p.errors.Inc()
		return err
	}
	errCh := make(chan error, 1)
	p.pend <- pushReq{buf: buf, errCh: errCh}
	return <-errCh
}

// publishAsync is the periodic-loop path: like Publish, but it never waits.
// A busy push goroutine (no free buffer, or a bundle already queued) means
// the push is dropped and counted, so a slow sink costs the training run
// nothing but staleness.
func (p *Publisher) publishAsync() {
	if p.sink == nil {
		return
	}
	var buf *bytes.Buffer
	select {
	case buf = <-p.free:
	default:
		p.dropped.Inc()
		return
	}
	if err := p.encode(buf); err != nil {
		p.free <- buf
		p.errors.Inc()
		return
	}
	select {
	case p.pend <- pushReq{buf: buf}:
	default:
		p.free <- buf
		p.dropped.Inc()
	}
}

// Stop pushes one final bundle (so the server's last view includes the
// run's end state), flushes the push goroutine, and terminates. Safe to
// call more than once; a nil publisher is a no-op.
func (p *Publisher) Stop() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		close(p.stop)
		<-p.done
		p.Publish()
		p.stopped.Store(true)
		close(p.pushStop)
		<-p.pushDone
	})
}

func (p *Publisher) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.publishAsync()
		case <-p.stop:
			return
		}
	}
}

// pushLoop owns the sink: it delivers queued bundles one at a time and
// returns their buffers to the free list. On shutdown it drains whatever is
// queued (the final Stop flush) before exiting.
func (p *Publisher) pushLoop() {
	defer close(p.pushDone)
	for {
		select {
		case req := <-p.pend:
			p.deliver(req)
		case <-p.pushStop:
			for {
				select {
				case req := <-p.pend:
					p.deliver(req)
				default:
					return
				}
			}
		}
	}
}

// deliver pushes one bundle. Only bundles encoded for a non-nil sink are
// queued, so the sink is always set here.
func (p *Publisher) deliver(req pushReq) {
	err := p.sink(req.buf.Bytes())
	if err != nil {
		p.errors.Inc()
	} else {
		p.publishes.Inc()
	}
	p.free <- req.buf
	if req.errCh != nil {
		req.errCh <- err
	}
}
