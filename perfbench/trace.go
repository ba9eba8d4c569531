package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/lang/ast"
	"repro/internal/machine/hw"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/types"
)

// The traced run times each layer from outside, at seams the program
// already has: an http.Handler around the transport, a wire.Codec on
// both ends, and an engine registered through exec.Register. A span is
// a name, a start and end (monotonic, from the tracer's epoch), the
// request id it belongs to, and — for engine runs and encoded
// responses — the shard and shard index that join them to a request.

// span is one timed interval at a layer boundary.
type span struct {
	Name  string        `json:"name"`
	Req   uint64        `json:"req"`              // request id (0: joined later by shard)
	Ord   int           `json:"ord,omitempty"`    // item ordinal within a stream
	Start time.Duration `json:"start_ns"`         // since the tracer's epoch
	End   time.Duration `json:"end_ns"`           // since the tracer's epoch
	Shard int           `json:"shard"`            // exec.run only
	Index int           `json:"shard_index"`      // exec.run only
	Steps int           `json:"steps,omitempty"`  // exec.run only
	Mits  int           `json:"mits,omitempty"`   // exec.run only
	Cyc   uint64        `json:"cycles,omitempty"` // exec.run only
	// Keys lists the (shard, shard_index) of every response an encode
	// carried, joining the encode (and so its request) to engine runs.
	Keys []shardKey `json:"keys,omitempty"`
}

type shardKey struct {
	Shard int `json:"shard"`
	Index int `json:"shard_index"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	clientCodecs []*tracedCodec // one per client connection
}

func newTracer(conns int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < conns; i++ {
		t.clientCodecs = append(t.clientCodecs, &tracedCodec{tr: t, side: "client"})
	}
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

type reqIDKey struct{}

// startCall opens a client call span on one connection: it allocates a
// request id, carries it in the context (the transport below copies it
// into a header) and makes it the connection codec's current request.
// The returned func closes the span. On a nil tracer it does nothing.
func (t *tracer) startCall(ctx context.Context, conn int) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id := t.ids.Add(1)
	t.clientCodecs[conn].cur.Store(id)
	start := t.now()
	return context.WithValue(ctx, reqIDKey{}, id), func() {
		t.add(span{Name: "client.call", Req: id, Start: start, End: t.now()})
	}
}

// streamItem records one stream item's client-side send-to-receive
// span; the ordinal joins it to the server side.
func (t *tracer) streamItem(ord int, start, end time.Duration) {
	if t != nil {
		t.add(span{Name: "client.call", Ord: ord, Start: start, End: end})
	}
}

func (t *tracer) clientCodec(conn int) wire.Codec { return t.clientCodecs[conn] }

// requestHeader carries the request id from the client to the handler
// wrapper. The transport ignores headers it does not know.
const requestHeader = "X-Perfbench-Request"

// reqIDTransport copies the request id from the call's context into a
// header.
type reqIDTransport struct{ rt http.RoundTripper }

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, strconv.FormatUint(id, 10))
	}
	return t.rt.RoundTrip(r)
}

// tracedCodec wraps the wire codec of one connection end. Requests on
// one HTTP/1.1 connection are sequential, so the current request id of
// the instance names the request every call belongs to. A stream's
// decode and encode loops run concurrently, so stream items are joined
// by ordinal instead: the k-th line decoded is the k-th result encoded.
type tracedCodec struct {
	tr   *tracer
	side string // "client" or "server"
	cur  atomic.Uint64
	dec  atomic.Int64 // stream lines decoded
	enc  atomic.Int64 // stream results encoded
}

func (c *tracedCodec) record(op string, start time.Duration, ord int, keys []shardKey) {
	name := "wire." + op
	if c.side == "client" {
		name = "client." + op
	}
	c.tr.add(span{Name: name, Req: c.cur.Load(), Ord: ord, Start: start, End: c.tr.now(), Keys: keys})
}

func respKey(r *wire.RunResponse) []shardKey {
	if r == nil {
		return nil
	}
	return []shardKey{{r.Shard, r.ShardIndex}}
}

func (c *tracedCodec) Name() string { return servingCodec.Name() }

func (c *tracedCodec) AppendRunRequest(dst []byte, v *wire.RunRequest) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendRunRequest(dst, v)
	c.record("encode", s, int(c.enc.Add(1)), nil)
	return b, err
}

func (c *tracedCodec) AppendRunResponse(dst []byte, v *wire.RunResponse) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendRunResponse(dst, v)
	c.record("encode", s, 0, respKey(v))
	return b, err
}

func (c *tracedCodec) AppendBatchRequest(dst []byte, v *wire.BatchRequest) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendBatchRequest(dst, v)
	c.record("encode", s, 0, nil)
	return b, err
}

func (c *tracedCodec) AppendBatchResponse(dst []byte, v *wire.BatchResponse) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendBatchResponse(dst, v)
	var keys []shardKey
	for i := range v.Results {
		keys = append(keys, respKey(v.Results[i].Response)...)
	}
	c.record("encode", s, 0, keys)
	return b, err
}

func (c *tracedCodec) AppendBatchResult(dst []byte, v *wire.BatchResult) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendBatchResult(dst, v)
	c.record("encode", s, int(c.enc.Add(1)), respKey(v.Response))
	return b, err
}

func (c *tracedCodec) AppendErrorEnvelope(dst []byte, v *wire.Error) ([]byte, error) {
	s := c.tr.now()
	b, err := servingCodec.AppendErrorEnvelope(dst, v)
	c.record("encode", s, 0, nil)
	return b, err
}

func (c *tracedCodec) DecodeRunRequest(data []byte, v *wire.RunRequest, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeRunRequest(data, v, strict)
	c.record("decode", s, int(c.dec.Add(1)), nil)
	return err
}

func (c *tracedCodec) DecodeRunResponse(data []byte, v *wire.RunResponse, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeRunResponse(data, v, strict)
	c.record("decode", s, 0, nil)
	return err
}

func (c *tracedCodec) DecodeBatchRequest(data []byte, v *wire.BatchRequest, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeBatchRequest(data, v, strict)
	c.record("decode", s, 0, nil)
	return err
}

func (c *tracedCodec) DecodeBatchResponse(data []byte, v *wire.BatchResponse, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeBatchResponse(data, v, strict)
	c.record("decode", s, 0, nil)
	return err
}

func (c *tracedCodec) DecodeBatchResult(data []byte, v *wire.BatchResult, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeBatchResult(data, v, strict)
	c.record("decode", s, int(c.dec.Add(1)), nil)
	return err
}

func (c *tracedCodec) DecodeErrorEnvelope(data []byte, v *wire.Error, strict bool) error {
	s := c.tr.now()
	err := servingCodec.DecodeErrorEnvelope(data, v, strict)
	c.record("decode", s, 0, nil)
	return err
}

// connKey carries a connection's own transport handler in the request
// context.
type connKey struct{}

// connHandler is the transport as one connection sees it. Every
// connection gets its own transport.Handler over the shared pool and
// session manager, so that its codec wrapper sees one request at a
// time; the handlers hold no state but admission counters.
type connHandler struct {
	h     *transport.Handler
	codec *tracedCodec
}

// tracedHandler is the http.Handler wrapper around the transport.
type tracedHandler struct {
	tr   *tracer
	opts transport.Options
}

// connContext builds the connection's transport (http.Server.ConnContext).
func (th *tracedHandler) connContext(ctx context.Context, _ net.Conn) context.Context {
	codec := &tracedCodec{tr: th.tr, side: "server"}
	opts := th.opts
	opts.Codec = codec
	h, err := transport.New(opts)
	if err != nil {
		panic(err) // the same options built the first handler successfully
	}
	return context.WithValue(ctx, connKey{}, &connHandler{h, codec})
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ch := r.Context().Value(connKey{}).(*connHandler)
	id, _ := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
	ch.codec.cur.Store(id)
	start := th.tr.now()
	ch.h.ServeHTTP(w, r)
	th.tr.add(span{Name: "transport.handler", Req: id, Start: start, End: th.tr.now()})
}

// tracedEngineName is the engine the traced pool runs; it delegates to
// the serving engine and times each run.
const tracedEngineName = "perfbench-traced"

// engineTracer and engineInner configure the registered factory: the
// registry is process-wide, and one process runs one traced assembly.
var (
	registerOnce  sync.Once
	engineTracer  *tracer
	engineInner   string
	registerError error
)

func registerTracedEngine(tr *tracer, inner string) error {
	engineTracer, engineInner = tr, inner
	registerOnce.Do(func() {
		registerError = exec.Register(tracedEngineName, func(prog *ast.Program, res *types.Result, env hw.Env, opts exec.Options) (exec.Engine, error) {
			e, err := exec.NewEngine(engineInner, prog, res, env, opts)
			if err != nil {
				return nil, err
			}
			return &tracedEngine{inner: e, tr: engineTracer, shard: opts.Shard}, nil
		})
	})
	return registerError
}

// tracedEngine times every run of one shard's engine. ShardIndex in a
// response counts the shard's successful runs before it, so the
// engine's own count of successes is the join key.
type tracedEngine struct {
	inner exec.Engine
	tr    *tracer
	shard int
	n     int
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(ctx context.Context, req exec.Request) (*exec.Result, error) {
	start := e.tr.now()
	res, err := e.inner.Run(ctx, req)
	if err != nil {
		return res, err
	}
	e.tr.add(span{Name: "exec.run", Start: start, End: e.tr.now(), Shard: e.shard, Index: e.n,
		Steps: res.Steps, Mits: len(res.Mitigations), Cyc: res.Clock})
	e.n++
	return res, nil
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
