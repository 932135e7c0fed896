package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"bdbms"
	"bdbms/internal/server"
)

// clientSpec is one simulated client of a pass.
type clientSpec struct {
	user     string
	prepared bool          // prepare the oltp statements at connect
	rate     float64       // open loop at this many ops/s; 0 = closed loop
	think    time.Duration // closed loop: pause between an answer and the next send
	next     func() op
}

// record is one completed operation.
type record struct {
	kind opKind
	lat  time.Duration // from send (closed loop) or from due time (open loop)
	late time.Duration // open loop: how late the generator sent it
	ok   bool
	rows int // rows returned
	anns int // annotations on those rows, each counted once per row
}

// passResult is everything a pass's clients did.
type passResult struct {
	elapsed time.Duration
	recs    []record
	errs    []string
}

func (p *passResult) count(ok bool) int {
	n := 0
	for _, r := range p.recs {
		if r.ok == ok {
			n++
		}
	}
	return n
}

// opsPerSec counts completed, correct operations.
func (p *passResult) opsPerSec() float64 { return ratio(float64(p.count(true)), p.elapsed.Seconds()) }

// runPass runs every client for dur: closed-loop clients send their next
// operation when the previous one returns, open-loop clients send on a
// fixed schedule and are timed from when each operation was due. Each
// client runs in its own goroutine on its own executor; runPass returns
// once all have stopped.
func runPass(specs []clientSpec, mk func(clientSpec) (executor, error), ck *checker, dur time.Duration, tr *tracer) (*passResult, error) {
	type out struct {
		recs []record
		errs []string
	}
	outs := make([]out, len(specs))
	execs := make([]executor, len(specs))
	for i, s := range specs {
		ex, err := mk(s)
		if err != nil {
			for _, e := range execs[:i] {
				e.close()
			}
			return nil, fmt.Errorf("connect %s: %w", s.user, err)
		}
		execs[i] = ex
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(o *out, ex executor, s clientSpec) {
			defer wg.Done()
			for n := 0; ; n++ {
				var due time.Time // closed loop: timed from the send
				if s.rate > 0 {
					due = start.Add(time.Duration(float64(n) / s.rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				if !time.Now().Before(deadline) || (s.rate > 0 && !due.Before(deadline)) {
					return
				}
				op := s.next()
				rec, err := execOne(ex, op, ck, tr, due)
				o.recs = append(o.recs, rec)
				if err != nil && len(o.errs) < 5 {
					o.errs = append(o.errs, fmt.Sprintf("%s %s: %v", s.user, op.kind, err))
				}
				time.Sleep(s.think)
			}
		}(&outs[i], execs[i], s)
	}
	wg.Wait()
	res := &passResult{elapsed: time.Since(start)}
	var err error
	for i, o := range outs {
		res.recs = append(res.recs, o.recs...)
		res.errs = append(res.errs, o.errs...)
		if cerr := execs[i].close(); err == nil {
			err = cerr
		}
	}
	return res, err
}

// execOne runs and checks one operation. The latency runs from due (from
// the send when due is zero) until the last row has arrived; checking
// happens after.
func execOne(ex executor, o op, ck *checker, tr *tracer, due time.Time) (record, error) {
	req := tr.newReq()
	root := tr.begin("op."+o.kind.String(), -1, req)
	lo := ck.acked()
	if o.kind.isWrite() {
		ck.beforeWrite(o)
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	res, err := ex.do(o, tr, root, req)
	rec := record{kind: o.kind, lat: time.Since(due), late: sent.Sub(due)}
	tr.end(root)
	if err == nil {
		if o.kind.isWrite() {
			err = ck.write(o, res)
		} else {
			err = ck.read(o, res, lo, ck.sent())
		}
	}
	rec.ok = err == nil
	if res != nil {
		rec.rows = len(res.rows)
		for _, n := range res.anns {
			rec.anns += n
		}
	}
	return rec, err
}

// served is a bdbms-server running in process on a loopback port.
type served struct {
	srv  *server.Server
	done chan error
}

func serve(db *bdbms.DB) (*served, error) {
	for _, u := range []string{userAnalyst, userCurator, userOLTP} {
		db.SetCredential(u, secret)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	return s, nil
}

func (s *served) addr() string { return s.srv.Addr().String() }

// stop drains the server and waits for Serve to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// openDB opens the run's file-backed database. Every workload commits
// with SyncOnCommit, the flush policy under which an acknowledged write
// survives power loss.
func openDB(path string, spill int) (*bdbms.DB, error) {
	return bdbms.OpenWith(bdbms.Options{DataFile: path, SyncOnCommit: true, SpillBudget: spill})
}

// dbFiles are the four files of a file-backed database.
func dbFiles(path string) []string {
	return []string{path, path + ".wal", path + ".catalog", path + ".manifest"}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
