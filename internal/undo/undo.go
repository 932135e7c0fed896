// Package undo implements the in-memory undo log behind bdbms transactions.
//
// Every mutating subsystem — the storage engine (heap rows, indexes, DDL),
// the annotation manager (annotation cells, archive flags, annotation
// tables), the dependency manager (outdated marks), the provenance manager
// (agent registry) and the authorization manager (the approval op log) —
// exposes a SetUndo hook. While a transaction (explicit BEGIN..COMMIT or the
// implicit transaction wrapped around every auto-commit statement) is open,
// each applied mutation pushes a compensating closure capturing its
// before-image. ROLLBACK runs the stack in reverse; ROLLBACK TO SAVEPOINT
// runs and discards only the entries pushed after the savepoint's mark.
//
// The log is purely in-memory: it reverts the live state of the process.
// Crash atomicity is the write-ahead log's job — recovery undoes uncommitted
// transactions from the before-images carried in the WAL records themselves
// (see internal/core). A Log belongs to one write frame, and write frames
// are serialized by the ScopeWAL latch (internal/storage/lock.go) that every
// writer holds from arming its frame to closing it, so a Log is only ever
// touched by one statement at a time and needs no locking of its own.
package undo

import "errors"

// Log is the undo stack of one open transaction. The zero value is ready to
// use.
type Log struct {
	entries []func() error
}

// New returns an empty undo log.
func New() *Log { return &Log{} }

// Push records the compensating action of one applied mutation. Actions must
// revert state directly (through the Recover* appliers), never through the
// logging mutators: running the undo log must not grow the WAL or the undo
// log itself.
func (l *Log) Push(fn func() error) { l.entries = append(l.entries, fn) }

// Len returns the number of recorded actions. A savepoint is just a
// remembered Len.
func (l *Log) Len() int { return len(l.entries) }

// Rollback reverts every recorded mutation, newest first, and empties the
// log. All actions run even when one fails; the errors are joined.
func (l *Log) Rollback() error { return l.RollbackTo(0) }

// RollbackTo reverts the mutations recorded after the given mark (a Len
// captured earlier), newest first, and truncates the log back to the mark.
// All actions run even when one fails; the errors are joined.
func (l *Log) RollbackTo(mark int) error {
	if mark < 0 {
		mark = 0
	}
	var errs []error
	for i := len(l.entries) - 1; i >= mark; i-- {
		if err := l.entries[i](); err != nil {
			errs = append(errs, err)
		}
	}
	if mark < len(l.entries) {
		l.entries = l.entries[:mark]
	}
	return errors.Join(errs...)
}

// Reset discards every recorded action without running it (COMMIT).
func (l *Log) Reset() { l.entries = l.entries[:0] }
