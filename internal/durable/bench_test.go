package durable

import (
	"fmt"
	"testing"
)

// BenchmarkRecover times what a restart replays: Open plus the state
// hand-off (Recovered) over a journal shaped like the end-to-end
// benchmark's — two services, ~32k credential records, 1.5% revoked.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, NoSync: true, GroupWindow: -1})
	if err != nil {
		b.Fatal(err)
	}
	const principals = 16000
	for i := 0; i < principals; i++ {
		p := fmt.Sprintf("principal-%06d", i)
		l.Append(Record{Op: OpCRIssue, Service: "login", Serial: uint64(i + 1), Subject: "login.user(" + p + ")", Holder: p})
		l.Append(Record{Op: OpCRIssue, Service: "files", Serial: uint64(i + 1), Subject: "files.reader(" + p + ")", Holder: p})
		if i%64 == 0 {
			l.Append(Record{Op: OpCRRevoke, Service: "login", Serial: uint64(i + 1), Reason: "logout"})
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.Recovered(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
