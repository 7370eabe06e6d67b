// Package wal implements qucloudd's write-ahead job log: an
// append-only JSONL file under the daemon's data directory that makes
// the bounded in-memory queue durable. Every admitted job is logged
// before its submission is acknowledged, and every terminal transition
// (done/failed) is logged when it happens; on startup the service
// replays the log, restores terminal records, and requeues every job
// that was admitted but never finished — so a crash or kill between
// accept and execute loses nothing.
//
// The format is one JSON object per line. A torn final line (the
// classic partial-write artifact of killing a process mid-append) is
// skipped and counted, never fatal: the log is an availability
// mechanism, and refusing to start over one ragged tail would invert
// its purpose. Compact rewrites the file atomically (temp file +
// rename); the service compacts once per startup to exactly the store
// it restored, so a log holds one process's appends on top of the
// retained state, never the daemon's whole history.
//
// The package itself is deterministic: it never reads the wall clock
// or draws randomness — timestamps arrive in the records the caller
// appends. File I/O errors are returned, not retried; the caller
// decides whether durability loss is fatal (qucloudd degrades to
// in-memory-only and counts the failures).
package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Record types: a job admission, its two terminal outcomes, and a
// compacted log's sequence mark.
const (
	// TypeSubmit logs an admitted job with everything needed to requeue
	// it after a restart (tenant, QASM source, idempotency key).
	TypeSubmit = "submit"
	// TypeDone logs a successful completion with its result summary.
	// The two outcome types are the names of the service's terminal
	// states.
	TypeDone = "done"
	// TypeFailed logs a terminal failure with its error.
	TypeFailed = "failed"
	// TypeSeq carries the highest job sequence number ever admitted, so
	// a compacted log that dropped that job's records never lets a
	// later process reissue its ID.
	TypeSeq = "seq"
)

// Record is one WAL line. Submit records carry the replayable job
// identity and source; terminal records carry the result summary keyed
// by the same ID. Field names are kept short — the log is written on
// the submit hot path and a 100k-job run appends 100k+ lines.
type Record struct {
	Type   string `json:"t"`
	ID     string `json:"id"`
	Seq    int    `json:"seq,omitempty"`
	Tenant string `json:"tn,omitempty"`
	Name   string `json:"name,omitempty"`
	QASM   string `json:"qasm,omitempty"`
	// Idem and Fingerprint persist the idempotency-key binding so a
	// retrying client still collapses onto the original job after a
	// daemon restart.
	Idem        string `json:"idem,omitempty"`
	Fingerprint string `json:"fp,omitempty"`
	// SubmittedUnixNano and Arrival preserve the job's original
	// submission instant across a restart (Arrival is seconds since the
	// logging service's start, mirroring cloudsim.Job.Arrival).
	SubmittedUnixNano int64   `json:"sub,omitempty"`
	Arrival           float64 `json:"arr,omitempty"`
	// Qubits and Gates are the parsed program's size, so a restored
	// terminal record, whose submit record carries no QASM, still
	// reports it.
	Qubits int `json:"q,omitempty"`
	Gates  int `json:"g,omitempty"`
	// Terminal-record result summary.
	Backend        string  `json:"bk,omitempty"`
	Error          string  `json:"err,omitempty"`
	PST            float64 `json:"pst,omitempty"`
	WaitSeconds    float64 `json:"wait,omitempty"`
	ServiceSeconds float64 `json:"svc,omitempty"`
	// Event is the Seq of the job's terminal lifecycle event, so a
	// restored job serves it under the number it had live (0 in logs
	// written before the field: the event restores as Seq 1).
	Event int `json:"ev,omitempty"`
}

// Replay is the result of reading an existing log: the parsed records
// in append order, plus how many unparseable lines were skipped (a
// torn tail from a kill mid-append is the expected source).
type Replay struct {
	Records []Record
	Skipped int
}

// Pending folds a replay into the jobs that must be requeued (admitted
// but never terminal), in submit order, and the terminal records worth
// restoring, in the order they were logged, which is the order the
// jobs ended: a store that evicts its oldest terminal records replays
// them to the same survivors. Each terminal record is joined with its
// submit record so the restored JobRecord keeps its identity fields; a
// terminal record without a submit record, or after the job's first,
// is dropped.
func (r Replay) Pending() (pending []Record, terminal []Record) {
	submits := map[string]Record{}
	for _, rec := range r.Records {
		if rec.Type == TypeSubmit {
			submits[rec.ID] = rec
		}
	}
	for _, rec := range r.Records {
		sub, ok := submits[rec.ID]
		if rec.Type != TypeDone && rec.Type != TypeFailed || !ok {
			continue
		}
		delete(submits, rec.ID) // the job has ended
		// Merge: the submit record's identity (not its source) plus the
		// terminal record's outcome.
		sub.Type, sub.QASM, sub.Backend, sub.Error = rec.Type, "", rec.Backend, rec.Error
		sub.PST, sub.WaitSeconds, sub.ServiceSeconds, sub.Event = rec.PST, rec.WaitSeconds, rec.ServiceSeconds, rec.Event
		terminal = append(terminal, sub)
	}
	for _, rec := range r.Records {
		if _, open := submits[rec.ID]; open && rec.Type == TypeSubmit {
			pending = append(pending, rec)
		}
	}
	return pending, terminal
}

// NextSeq is one past the highest job sequence number a submit record
// or a sequence mark holds (0 for a log with neither): the first
// sequence number a restarted service may issue.
func (r Replay) NextSeq() int {
	next := 0
	for _, rec := range r.Records {
		if (rec.Type == TypeSubmit || rec.Type == TypeSeq) && rec.Seq >= next {
			next = rec.Seq + 1
		}
	}
	return next
}

// Log is an open write-ahead log. Append is safe for concurrent use;
// the hook and path fields must be set before the log is shared.
type Log struct {
	// AppendHook, when non-nil, runs before every append; an error
	// aborts the append and is returned to the caller. It exists for
	// fault injection (the chaos suite's WAL-append outage site).
	AppendHook func() error

	path string

	mu sync.Mutex
	f  *os.File // guarded by mu
}

// Open reads the log at path (creating it when absent), returns the
// replayed records, and leaves the file open for appending. Lines that
// do not parse as a Record are counted in Replay.Skipped — a torn
// final line from a mid-append kill must not prevent startup.
func Open(path string) (*Log, Replay, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	rep, err := replay(f)
	if err != nil {
		f.Close()
		return nil, Replay{}, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	// Position at the end for appends, and terminate a torn tail with a
	// newline so the next append starts its own line instead of gluing
	// onto the fragment (which would corrupt a good record too).
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, Replay{}, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			f.Close()
			return nil, Replay{}, fmt.Errorf("wal: read tail %s: %w", path, err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, Replay{}, fmt.Errorf("wal: terminate tail %s: %w", path, err)
			}
		}
	}
	return &Log{path: path, f: f}, rep, nil
}

// replay parses every line of the open file.
func replay(f *os.File) (Replay, error) {
	var rep Replay
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Type == "" || rec.ID == "" {
			rep.Skipped++
			continue
		}
		rep.Records = append(rep.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return Replay{}, err
	}
	return rep, nil
}

// Append writes one record as a single line. The write goes straight
// to the file descriptor (no userspace buffering), so a killed process
// loses at most the record being written — the torn tail Open skips.
// It does not fsync: the durability target is process death, not
// power loss, and an fsync per admitted job would put a disk flush on
// the submit path.
func (l *Log) Append(rec Record) error {
	if hook := l.AppendHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: marshal: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// Compact atomically replaces the log's contents with the given
// records (temp file in the same directory + rename), then reopens for
// append. The service calls it after replay so the file holds exactly
// the restored store instead of every line ever written.
func (l *Log) Compact(live []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".wal-compact-*")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	for _, rec := range live {
		data, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("wal: compact marshal: %w", err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: compact flush: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return fmt.Errorf("wal: compact rename: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact reopen: %w", err)
	}
	l.f.Close()
	l.f = f
	return nil
}

// Close syncs and closes the underlying file. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
