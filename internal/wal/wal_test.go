package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func openT(t *testing.T, path string) (*Log, Replay) {
	t.Helper()
	l, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, rep
}

func TestAppendAndReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, rep := openT(t, path)
	if len(rep.Records) != 0 || rep.Skipped != 0 {
		t.Fatalf("fresh log replayed %+v", rep)
	}
	recs := []Record{
		{Type: TypeSubmit, ID: "job-000000", Seq: 0, Tenant: "acme", Name: "bv", QASM: "OPENQASM 2.0;", Arrival: 0.5},
		{Type: TypeSubmit, ID: "job-000001", Seq: 1, Tenant: "beta", Name: "ghz", QASM: "OPENQASM 2.0;", Idem: "k1", Fingerprint: "abc"},
		{Type: TypeDone, ID: "job-000000", Backend: "london", PST: 0.91, WaitSeconds: 1.5, ServiceSeconds: 0.2},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep2 := openT(t, path)
	defer l2.Close()
	if len(rep2.Records) != len(recs) || rep2.Skipped != 0 {
		t.Fatalf("replay got %d records (%d skipped), want %d", len(rep2.Records), rep2.Skipped, len(recs))
	}
	for i, got := range rep2.Records {
		if got != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got, recs[i])
		}
	}

	pending, terminal := rep2.Pending()
	if len(pending) != 1 || pending[0].ID != "job-000001" {
		t.Fatalf("pending = %+v, want only job-000001", pending)
	}
	if len(terminal) != 1 || terminal[0].ID != "job-000000" {
		t.Fatalf("terminal = %+v, want only job-000000", terminal)
	}
	// The terminal record is joined with its submit identity.
	tm := terminal[0]
	if tm.Tenant != "acme" || tm.Name != "bv" || tm.Arrival != 0.5 || tm.PST != 0.91 || tm.Type != TypeDone {
		t.Fatalf("terminal join lost fields: %+v", tm)
	}
}

// TestTornTailSkipped simulates a kill mid-append: a partial final line
// must be skipped (and counted), never fatal, and appends after reopen
// must land on their own line.
func TestTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, _ := openT(t, path)
	if err := l.Append(Record{Type: TypeSubmit, ID: "job-000000"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"submit","id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rep := openT(t, path)
	if len(rep.Records) != 1 || rep.Skipped != 1 {
		t.Fatalf("torn tail: got %d records, %d skipped, want 1/1", len(rep.Records), rep.Skipped)
	}
	// An append after replay must start a fresh line — the replayed
	// record set after another reopen is the old record plus the new
	// one, with the torn fragment still isolated.
	if err := l2.Append(Record{Type: TypeDone, ID: "job-000000"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, rep2 := openT(t, path)
	if len(rep2.Records) != 2 {
		t.Fatalf("after reopen+append: got %d records, want 2 (%+v)", len(rep2.Records), rep2.Records)
	}
}

// TestGarbageLinesSkipped: arbitrary corruption (bad JSON, valid JSON
// missing mandatory fields, blank lines) is counted and skipped.
func TestGarbageLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	content := strings.Join([]string{
		`{"t":"submit","id":"job-000000"}`,
		`not json at all`,
		`{"valid":"json","but":"no type"}`,
		``,
		`{"t":"done","id":"job-000000"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep := openT(t, path)
	defer l.Close()
	if len(rep.Records) != 2 || rep.Skipped != 2 {
		t.Fatalf("got %d records, %d skipped, want 2/2", len(rep.Records), rep.Skipped)
	}
}

func TestCompactRewritesToLiveState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, _ := openT(t, path)
	for i := 0; i < 100; i++ {
		if err := l.Append(Record{Type: TypeSubmit, ID: "job-x", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	live := []Record{{Type: TypeSubmit, ID: "job-000042", Seq: 42}}
	if err := l.Compact(live); err != nil {
		t.Fatal(err)
	}
	// The log keeps accepting appends after compaction.
	if err := l.Append(Record{Type: TypeDone, ID: "job-000042"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, path)
	if len(rep.Records) != 2 || rep.Records[0].Seq != 42 || rep.Records[1].Type != TypeDone {
		t.Fatalf("post-compact replay: %+v", rep.Records)
	}
}

func TestAppendHookAbortsAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, _ := openT(t, path)
	injected := errors.New("injected outage")
	fail := true
	l.AppendHook = func() error {
		if fail {
			return injected
		}
		return nil
	}
	if err := l.Append(Record{Type: TypeSubmit, ID: "job-000000"}); !errors.Is(err, injected) {
		t.Fatalf("hooked append: err = %v, want injected", err)
	}
	fail = false
	if err := l.Append(Record{Type: TypeSubmit, ID: "job-000001"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, rep := openT(t, path)
	if len(rep.Records) != 1 || rep.Records[0].ID != "job-000001" {
		t.Fatalf("aborted append leaked into the log: %+v", rep.Records)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	l, _ := openT(t, path)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeSubmit, ID: "x"}); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestPendingPreservesSubmitOrder: requeue order after replay is the
// original admission order regardless of terminal interleaving, the
// terminal records come back in the order the jobs ended (the order a
// capped history evicts in), and NextSeq clears every logged sequence
// number, a compaction's mark included.
func TestPendingPreservesSubmitOrder(t *testing.T) {
	rep := Replay{Records: []Record{
		{Type: TypeSubmit, ID: "a", Seq: 0},
		{Type: TypeSubmit, ID: "b", Seq: 1},
		{Type: TypeSubmit, ID: "c", Seq: 2},
		{Type: TypeSubmit, ID: "d", Seq: 3},
		{Type: TypeFailed, ID: "b", Error: "boom"},
		{Type: TypeDone, ID: "a", PST: 0.5},
	}}
	pending, terminal := rep.Pending()
	if len(pending) != 2 || pending[0].ID != "c" || pending[1].ID != "d" {
		t.Fatalf("pending = %+v", pending)
	}
	if len(terminal) != 2 || terminal[0].ID != "b" || terminal[0].Error != "boom" || terminal[1].ID != "a" || terminal[1].Seq != 0 {
		t.Fatalf("terminal = %+v", terminal)
	}
	if got := rep.NextSeq(); got != 4 {
		t.Fatalf("NextSeq = %d, want 4", got)
	}
	rep.Records = append(rep.Records, Record{Type: TypeSeq, ID: "seq", Seq: 9})
	if got := rep.NextSeq(); got != 10 {
		t.Fatalf("NextSeq after a mark for 9 = %d, want 10", got)
	}
}

// TestCrashAtEveryByteOffset kills the writer at every possible point:
// a real log written through Append is truncated at each byte offset,
// and every truncation must open, skip at most the one torn line,
// replay exactly the records whose bytes were all written (a record
// missing only its newline counts as written — Open's tail repair
// supplies it), and accept a following append that survives a reopen.
func TestCrashAtEveryByteOffset(t *testing.T) {
	recs := []Record{
		{Type: TypeSubmit, ID: "job-000000", Seq: 0, Tenant: "acme", Name: "bv", QASM: "OPENQASM 2.0;\nqreg q[3];", Arrival: 0.5},
		{Type: TypeSubmit, ID: "job-000001", Seq: 1, Tenant: "beta", Name: "ghz", QASM: "OPENQASM 2.0;", Idem: "k1", Fingerprint: "abc", SubmittedUnixNano: 17},
		{Type: TypeSubmit, ID: "job-000002", Seq: 2, Tenant: "acme", Name: "qft", QASM: "OPENQASM 2.0;"},
		{Type: TypeDone, ID: "job-000000", Backend: "london", PST: 0.91, WaitSeconds: 1.5, ServiceSeconds: 0.2},
		{Type: TypeSubmit, ID: "job-000003", Seq: 3, Tenant: "beta", Name: "bv", QASM: "OPENQASM 2.0;"},
		{Type: TypeFailed, ID: "job-000002", Backend: "ibmq16", Error: `compile: no "region" fits`},
		{Type: TypeSubmit, ID: "job-000004", Seq: 4, Tenant: "acme", Name: "bv", QASM: "OPENQASM 2.0;"},
		{Type: TypeDone, ID: "job-000001", Backend: "ibmq16", PST: 0.4, WaitSeconds: 2},
		{Type: TypeSubmit, ID: "job-000005", Seq: 5, Tenant: "beta", Name: "bv", QASM: "OPENQASM 2.0;"},
		{Type: TypeDone, ID: "job-000004", Backend: "london", PST: 0.8},
		{Type: TypeDone, ID: "job-000003", Backend: "london", PST: 0.7},
		{Type: TypeSubmit, ID: "job-000006", Seq: 6, Tenant: "acme", Name: "bv", QASM: "OPENQASM 2.0;"},
		{Type: TypeDone, ID: "job-000005", Backend: "ibmq16", PST: 0.6},
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "full.jsonl")
	l, _ := openT(t, src)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// written[k] is the file size once record k's JSON, bar its newline,
	// is on disk (JSON escapes newlines, so each one ends a record).
	var written []int
	for i, b := range full {
		if b == '\n' {
			written = append(written, i)
		}
	}
	if len(written) != len(recs) {
		t.Fatalf("log has %d lines for %d records", len(written), len(recs))
	}

	path := filepath.Join(dir, "wal.jsonl")
	after := Record{Type: TypeSubmit, ID: "job-after", Seq: 99}
	for n := 0; n <= len(full); n++ {
		whole := 0
		for whole < len(recs) && written[whole] <= n {
			whole++
		}
		want := recs[:whole]
		// The tail is torn when some, but by the choice of whole not
		// all, of the next record's bytes follow the last newline.
		torn, nextStart := 0, 0
		if whole > 0 {
			nextStart = written[whole-1] + 1
		}
		if n > nextStart {
			torn = 1
		}

		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(path)
		if err != nil {
			t.Fatalf("offset %d: %v", n, err)
		}
		if rep.Skipped != torn || !slices.Equal(rep.Records, want) {
			t.Fatalf("offset %d: replayed %d records (%d skipped), want the first %d (%d skipped)",
				n, len(rep.Records), rep.Skipped, whole, torn)
		}
		submitted := map[string]bool{}
		for _, r := range rep.Records {
			if r.Type == TypeSubmit {
				submitted[r.ID] = true
			} else if !submitted[r.ID] {
				t.Fatalf("offset %d: %s record for %s precedes its submit", n, r.Type, r.ID)
			}
		}
		gotPending, gotTerminal := rep.Pending()
		wantPending, wantTerminal := Replay{Records: want}.Pending()
		if !slices.Equal(gotPending, wantPending) || !slices.Equal(gotTerminal, wantTerminal) {
			t.Fatalf("offset %d: pending/terminal = %d/%d jobs, want %d/%d",
				n, len(gotPending), len(gotTerminal), len(wantPending), len(wantTerminal))
		}

		// The next append must land on its own line whatever the tail
		// looked like.
		if err := l.Append(after); err != nil {
			t.Fatalf("offset %d: %v", n, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("offset %d: %v", n, err)
		}
		l2, rep2, err := Open(path)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", n, err)
		}
		l2.Close()
		if rep2.Skipped != torn || len(rep2.Records) != whole+1 || rep2.Records[whole] != after {
			t.Fatalf("offset %d: after append+reopen got %d records (%d skipped), want %d ending in %s",
				n, len(rep2.Records), rep2.Skipped, whole+1, after.ID)
		}
	}
}
