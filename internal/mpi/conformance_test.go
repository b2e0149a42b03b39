package mpi

import (
	"bytes"
	"testing"
	"time"

	"dnnperf/internal/telemetry"
)

// The Send(to, tag, Msg) contract, checked on every endpoint composition the
// repo builds: whatever a Msg carries (ownership, trace context, both,
// neither) and whatever decorators sit above the transport, the payload
// arrives intact, a stamped send is observed exactly once, and an owned
// frame is always consumed.

type msgKind struct {
	name           string
	owned, stamped bool
}

var msgKinds = []msgKind{
	{"plain", false, false},
	{"owned", true, false},
	{"stamped", false, true},
	{"owned+stamped", true, true},
}

// endpointChain decorates a terminal endpoint; ft is the chain's fault
// injector, nil when it has none.
type endpointChain struct {
	name string
	wrap func(ep Endpoint) (wrapped Endpoint, ft *FaultTransport)
}

var endpointChains = []endpointChain{
	{"bare", func(ep Endpoint) (Endpoint, *FaultTransport) { return ep, nil }},
	{"fault", func(ep Endpoint) (Endpoint, *FaultTransport) {
		ft := NewFaultTransport(ep, FaultConfig{})
		return ft, ft
	}},
	{"instrument", func(ep Endpoint) (Endpoint, *FaultTransport) {
		return Instrument(ep, telemetry.New()), nil
	}},
	{"instrument-fault", func(ep Endpoint) (Endpoint, *FaultTransport) {
		ft := NewFaultTransport(ep, FaultConfig{})
		return Instrument(ft, telemetry.New()), ft
	}},
	{"sub-fault", func(ep Endpoint) (Endpoint, *FaultTransport) {
		ft := NewFaultTransport(ep, FaultConfig{})
		return &subEndpoint{parent: ft, members: []int{0, 1}, rank: ep.Rank(), tagXor: 0x5a5a}, ft
	}},
}

var conformanceTransports = []struct {
	name string
	tcp  bool
}{{"inproc", false}, {"tcp", true}}

// conformancePair builds a fresh 2-rank job on the transport and returns
// both ranks' decorated endpoints plus rank 0's fault injector.
func conformancePair(t *testing.T, tcp bool, chain endpointChain) (eps [2]Endpoint, ft *FaultTransport) {
	t.Helper()
	var comms []*Comm
	if tcp {
		var err error
		if comms, err = StartLocalTCPJobOpts(2, fastTCPOpts()); err != nil {
			t.Fatal(err)
		}
	} else {
		w, err := NewWorldOpts(2, WorldOptions{RecvTimeout: 400 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		comms = []*Comm{w.Comm(0), w.Comm(1)}
	}
	for r, c := range comms {
		wrapped, f := chain.wrap(c.Endpoint())
		eps[r] = wrapped
		if r == 0 {
			ft = f
		}
	}
	t.Cleanup(func() {
		eps[0].Abort()
		eps[1].Abort()
	})
	return eps, ft
}

// framesOut is how many pooled frames are currently checked out.
func framesOut() int64 {
	st := sharedFramePool.Stats()
	return st.Gets - st.Puts
}

func TestTransportConformance(t *testing.T) {
	const payloadLen = 300 // not a size class: a pooled frame has cap 512
	want := make([]byte, payloadLen)
	for i := range want {
		want[i] = byte(i * 7)
	}
	for _, tr := range conformanceTransports {
		for _, chain := range endpointChains {
			t.Run(tr.name+"/"+chain.name, func(t *testing.T) {
				eps, ft := conformancePair(t, tr.tcp, chain)
				sink, ok := findCapability[traceSinkSetter](eps[1])
				if !ok {
					t.Fatal("no trace sink on the receiving transport")
				}
				seen, calls, stampedSends := map[uint64]int{}, 0, 0
				sink.SetTraceSink(func(from int, tag uint32, ctx TraceCtx) {
					seen[ctx.Span]++
					calls++
				})

				// mk builds the i-th message of kind k; an owned one checks
				// a frame out of the pool.
				mk := func(k msgKind, i int) Msg {
					m := Msg{Buf: want, Owned: k.owned}
					if k.owned {
						m.Buf = sharedFramePool.Get(payloadLen)
						copy(m.Buf, want)
					}
					if k.stamped {
						m.Ctx = TraceCtx{Step: 1, Coll: uint32(i), Origin: 0, Span: 1<<32 | uint64(i)}
					}
					return m
				}
				// recv takes one delivery and gives a pooled frame back. TCP
				// always receives into the pool; in-process only an owned
				// frame arrives pooled (a borrowed payload was copied).
				recv := func(tag uint32, pooled bool) {
					t.Helper()
					got, err := eps[1].Recv(0, tag)
					if err != nil {
						t.Fatalf("recv tag %d: %v", tag, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("tag %d: payload corrupted (%d bytes)", tag, len(got))
					}
					if pooled {
						sharedFramePool.Put(got)
					}
				}
				base := framesOut()
				balanced := func(what string) {
					t.Helper()
					if out := framesOut(); out != base {
						t.Fatalf("%s: %d pooled frames outstanding, want %d", what, out, base)
					}
				}
				// observedOnce: the sink fired once for m if it was stamped,
				// and never for anything unstamped.
				observedOnce := func(what string, m Msg) {
					t.Helper()
					if m.Ctx.Span != 0 {
						stampedSends++
						if got := seen[m.Ctx.Span]; got != 1 {
							t.Fatalf("%s: sink saw span %#x %d times, want 1", what, m.Ctx.Span, got)
						}
					}
					if calls != stampedSends {
						t.Fatalf("%s: %d sink calls for %d stamped sends", what, calls, stampedSends)
					}
				}

				seq := 0
				for _, k := range msgKinds {
					// Delivered once, intact, observed once.
					seq++
					m := mk(k, seq)
					if err := eps[0].Send(1, uint32(seq), m); err != nil {
						t.Fatalf("%s send: %v", k.name, err)
					}
					recv(uint32(seq), tr.tcp || k.owned)
					observedOnce(k.name, m)
					balanced(k.name)

					// Invalid peer: an error, and the frame is released.
					if err := eps[0].Send(7, uint32(seq), mk(k, seq)); err == nil {
						t.Fatalf("%s: send to rank 7 of 2 succeeded", k.name)
					}
					balanced(k.name + " to invalid peer")

					if ft == nil {
						continue
					}
					// Partitioned peer: silently discarded, frame released.
					ft.Partition(1)
					if err := eps[0].Send(1, uint32(seq), mk(k, seq)); err != nil {
						t.Fatalf("%s partitioned send: %v", k.name, err)
					}
					ft.Heal(1)
					balanced(k.name + " discarded")

					// Duplicated: both copies arrive intact (the borrowed
					// original first, the owned frame second), one arrow.
					seq++
					m = mk(k, seq)
					ft.SetConfig(FaultConfig{DupProb: 1})
					if err := eps[0].Send(1, uint32(seq), m); err != nil {
						t.Fatalf("%s duplicated send: %v", k.name, err)
					}
					ft.SetConfig(FaultConfig{})
					recv(uint32(seq), tr.tcp)
					recv(uint32(seq), tr.tcp || k.owned)
					observedOnce(k.name+" duplicated", m)
					balanced(k.name + " duplicated")
				}

				// Closed transport: an error, and the frame is released.
				// Abort, not Close: a goodbye frame would itself be received
				// into the pool and blur the count.
				eps[0].Abort()
				for _, k := range msgKinds {
					if err := eps[0].Send(1, 99, mk(k, 99)); err == nil {
						t.Fatalf("%s: send on an aborted endpoint succeeded", k.name)
					}
					balanced(k.name + " after abort")
				}

				// One decide() draw per logical send, whatever the Msg
				// carries: the same seed injects the same faults with flow
				// tracing armed as with it off.
				if ft == nil {
					return
				}
				cfg := FaultConfig{Seed: 11, DropProb: 0.2, DupProb: 0.3, DelayProb: 0.2, Delay: time.Microsecond}
				run := func(armed bool) FaultStats {
					eps, ft := conformancePair(t, tr.tcp, chain)
					ft.SetConfig(cfg)
					c := NewComm(eps[0])
					if armed {
						c.SetFlowTracer(telemetry.NewTracer())
					}
					for i := 0; i < 96; i++ {
						// A new flow per send, so every armed send is stamped.
						c.BeginFlow(int64(i))
						m := Msg{Buf: []byte{byte(i)}}
						if i%2 == 0 {
							m = Msg{Buf: sharedFramePool.Get(64), Owned: true}
						}
						if err := c.send(1, uint32(i), m); err != nil {
							t.Fatalf("send %d: %v", i, err)
						}
						c.EndFlow()
					}
					return ft.Stats()
				}
				off, on := run(false), run(true)
				if off != on {
					t.Fatalf("fault sequence moved with tracing armed:\n off %+v\n on  %+v", off, on)
				}
				if off.Dropped == 0 || off.Duplicated == 0 || off.Delayed == 0 {
					t.Fatalf("fault sequence exercised too little: %+v", off)
				}
			})
		}
	}
}
