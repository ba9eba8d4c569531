package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/transport/client"
	"repro/internal/transport/wire"
)

// target is the service a workload drives: its base URL, the server's
// process id when it runs as its own process (0 in-process), and the
// tracer when the run is traced (nil otherwise; every tracer method is
// a no-op on nil).
type target struct {
	base string
	pid  int
	tr   *tracer
}

// mark is a snapshot of the service's counters at one edge of the
// measured window.
type mark struct {
	exp obs.Export    // the service's /v1/metrics
	cpu time.Duration // server process CPU time (own process only)
	rt  runtimeSample // this process's runtime counters (traced only)
	// steal and total are the host's stolen and total CPU ticks, so a
	// run slowed by the hypervisor says so in its record.
	steal, total uint64
}

// mark records the start (or end) of the measured window into o.
func (t target) mark(ctx context.Context, o *outcome, start bool) error {
	exp, err := scrape(ctx, t.base)
	if err != nil {
		return err
	}
	m := mark{exp: exp, rt: readRuntime()}
	m.steal, m.total = hostTicks()
	if t.pid != 0 {
		if m.cpu, err = cpuTime(t.pid); err != nil {
			return err
		}
	}
	if start {
		o.m0 = m
	} else {
		o.m1 = m
	}
	return nil
}

// newClient returns an SDK client that owns exactly one keep-alive
// connection, so the number of clients is the number of connections.
func (t target) newClient(conn int) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	opts := client.Options{Concurrency: 1, HTTPClient: &http.Client{Transport: tr}}
	if t.tr != nil {
		opts.HTTPClient.Transport = reqIDTransport{tr}
		opts.Codec = t.tr.clientCodec(conn)
	}
	return client.New(t.base, opts)
}

// runResult is the outcome of one call, handed to the workload's
// response callback.
type runResult struct {
	resp *wire.RunResponse
	err  error
}

// closedLoop runs one goroutine per connection, each sending its next
// request as soon as the previous one is answered, until the deadline.
// It returns the answer times (offsets from the start) and the elapsed
// time. onResp sees every result on its connection's goroutine.
func closedLoop(ctx context.Context, t target, clients []*client.Client, d time.Duration,
	next func(conn int) wire.RunRequest, onResp func(conn int, req wire.RunRequest, r runResult)) ([]time.Duration, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	answered := make([][]time.Duration, len(clients))
	for conn, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := next(conn)
				cctx, done := t.tr.startCall(ctx, conn)
				resp, err := c.Run(cctx, req)
				done()
				onResp(conn, req, runResult{resp, err})
				answered[conn] = append(answered[conn], time.Since(start))
			}
		}()
	}
	wg.Wait()
	var all []time.Duration
	for _, a := range answered {
		all = append(all, a...)
	}
	return all, time.Since(start)
}

// openStep is the outcome of one open-loop rate.
type openStep struct {
	latMS  []float64 // answer time minus due time, in schedule order
	lateMS []float64 // how late the generator dispatched each request
	depths []int     // requests due but unanswered, at each due time
	failed int
	sent   int
	// achieved is the answer rate while the schedule ran, per second.
	achieved float64
}

// openLoop sends n requests on a fixed schedule (offsets in seconds
// from the step's start) over the given connections, whatever the
// service's speed: a dispatcher hands each request to the senders at
// its due time, and a request waiting for a free connection keeps
// waiting, so latency counts from the due time. The senders are the
// connections (at most nproc), and the dispatcher's own delay is
// recorded as lateness.
func openLoop(ctx context.Context, t target, clients []*client.Client, due []float64,
	reqs []wire.RunRequest, onResp func(conn int, req wire.RunRequest, r runResult)) openStep {
	type job struct {
		i  int
		at time.Time
	}
	// Sized to the number of sends: the dispatcher never blocks on a
	// busy service, which is what makes the loop open.
	queue := make(chan job, len(due))
	var answered atomic.Int64
	lats := make([]float64, len(due)) // by request index: each written by one sender
	fails := make([]int, len(clients))
	var wg sync.WaitGroup
	for conn, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				cctx, done := t.tr.startCall(ctx, conn)
				resp, err := c.Run(cctx, reqs[j.i])
				done()
				lats[j.i] = float64(time.Since(j.at)) / 1e6
				if err != nil {
					fails[conn]++
				}
				onResp(conn, reqs[j.i], runResult{resp, err})
				answered.Add(1)
			}
		}()
	}
	st := openStep{lateMS: make([]float64, 0, len(due)), depths: make([]int, 0, len(due))}
	start := time.Now().Add(time.Millisecond)
	for i, off := range due {
		at := start.Add(time.Duration(off * float64(time.Second)))
		sleepUntil(at)
		if ctx.Err() != nil {
			break
		}
		st.lateMS = append(st.lateMS, float64(time.Since(at))/1e6)
		st.depths = append(st.depths, i-int(answered.Load()))
		queue <- job{i, at}
		st.sent++
	}
	if n := len(due); n > 0 && due[n-1] > 0 {
		st.achieved = float64(answered.Load()) / time.Since(start).Seconds()
	}
	close(queue)
	wg.Wait()
	st.latMS = lats[:st.sent]
	for _, f := range fails {
		st.failed += f
	}
	return st
}

// sleepUntil blocks until t with a nanosleep system call. Go's own
// timers wake on the network poller's millisecond ticks on Linux, which
// would make an open-loop generator dispatch in bursts a millisecond
// apart; nanosleep keeps it within about 0.1 ms of its schedule.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}
