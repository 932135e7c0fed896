package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bdbms/internal/server/wire"
)

// span is one timed call. Parent indexes the tracer's span list (-1 for a
// root); Req is the request (operation) the call served. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq allocates a request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.req.Add(1)
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	n           int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children's intervals cover
// (overlapping children are counted once, and children are clipped to the
// parent). Unfinished spans are ignored.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := coveredNs(children[int32(i)], s.Start, s.End)
		lt := out[s.Name]
		lt.n++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered)
		out[s.Name] = lt
	}
	return out
}

// coveredNs returns how many nanoseconds of [lo, hi] the union of ivs
// covers.
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// writeSpans writes one JSON object per line.
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

// relay is a loopback TCP proxy between clients and the server that counts
// protocol frames and bytes in each direction by re-framing the stream
// with wire.ReadFrame / wire.WriteFrame.
type relay struct {
	ln                  net.Listener
	target              string
	framesIn, framesOut atomic.Int64 // in: client to server
	bytesIn, bytesOut   atomic.Int64
	wg                  sync.WaitGroup
	mu                  sync.Mutex
	conns               []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pump(c, s, &r.framesIn, &r.bytesIn)
		go r.pump(s, c, &r.framesOut, &r.bytesOut)
	}
}

// pump forwards frames from src to dst, flushing whenever no further input
// is already buffered, so batched result frames leave in few writes.
func (r *relay) pump(src, dst net.Conn, frames, bytes *atomic.Int64) {
	defer r.wg.Done()
	defer dst.Close()
	br := bufio.NewReaderSize(src, 64<<10)
	bw := bufio.NewWriterSize(dst, 64<<10)
	for {
		t, payload, err := wire.ReadFrame(br, 0)
		if err != nil {
			return
		}
		frames.Add(1)
		bytes.Add(int64(5 + len(payload)))
		if err := wire.WriteFrame(bw, t, payload); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// close stops accepting, closes every relayed connection and waits for the
// pumps to exit.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// printSelfTimes writes the per-span-name table of a traced pass.
func printSelfTimes(w io.Writer, pass string, spans []span, ops int) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := st[n]
		fmt.Fprintf(w, "selftime pass=%s span=%-14s n=%-7d total_ms=%.1f self_ms=%.1f self_us_per_op=%.2f\n",
			pass, n, lt.n, ms(lt.total), ms(lt.self), ratio(float64(lt.self.Microseconds()), float64(ops)))
	}
}
