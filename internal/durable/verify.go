package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SegmentReport describes one journal or snapshot file's integrity.
type SegmentReport struct {
	Name      string `json:"name"`
	Gen       uint64 `json:"gen"`
	Bytes     int64  `json:"bytes"`
	Records   int    `json:"records"`
	Truncated bool   `json:"truncated,omitempty"` // torn tail past the last intact record
	TornBytes int64  `json:"torn_bytes,omitempty"`
	Err       string `json:"err,omitempty"`
}

// VerifyReport is the result of an offline state-directory check.
type VerifyReport struct {
	Dir      string          `json:"dir"`
	Segments []SegmentReport `json:"segments"`
	// Replayable state totals, counted from a full offline replay.
	Services     int  `json:"services"`
	CRs          int  `json:"crs"`
	RevokedCRs   int  `json:"revoked_crs"`
	Appointments int  `json:"appointments"`
	RevokedAppts int  `json:"revoked_appts"`
	Facts        int  `json:"facts"`
	OK           bool `json:"ok"`
}

// Verify checks a state directory offline, without modifying it: every
// snapshot must decode and checksum, every journal generation below the
// newest must be intact, and the newest may carry at most a torn tail
// (which recovery would discard). It also replays the whole directory the
// way Open would and reports the resulting state's totals.
func Verify(dir string) (*VerifyReport, error) {
	rep := &VerifyReport{Dir: dir, OK: true}
	wals, snaps, err := listGens(dir)
	if err != nil {
		return nil, err
	}
	for _, gen := range snaps {
		sr := SegmentReport{Name: snapName(gen), Gen: gen}
		image, serr := readSnapshot(dir, gen, func(*Record) { sr.Records++ })
		sr.Bytes = int64(len(image))
		if serr != nil {
			sr.Err, sr.Records = serr.Error(), 0
			rep.OK = false
		}
		rep.Segments = append(rep.Segments, sr)
	}
	for i, gen := range wals {
		sr := SegmentReport{Name: walName(gen), Gen: gen}
		if fi, err := os.Stat(filepath.Join(dir, walName(gen))); err == nil {
			sr.Bytes = fi.Size()
		}
		sc, rerr := replaySegment(dir, gen, i == len(wals)-1, NewState())
		sr.Records, sr.TornBytes, sr.Truncated = sc.records, sc.torn, sc.torn > 0
		if rerr != nil {
			sr.Err = rerr.Error()
			rep.OK = false
		}
		rep.Segments = append(rep.Segments, sr)
	}

	// Offline replay, exactly Open's: newest readable snapshot, then the
	// journal generations at or above it.
	c, err := loadChain(dir)
	if err != nil {
		rep.OK = false
		return rep, nil
	}
	st := c.state
	rep.Services = len(st.Services)
	for _, ss := range st.Services {
		rep.CRs += len(ss.CRs)
		for _, cr := range ss.CRs {
			if cr.Revoked {
				rep.RevokedCRs++
			}
		}
		rep.Appointments += len(ss.Appts)
		for _, a := range ss.Appts {
			if a.Revoked {
				rep.RevokedAppts++
			}
		}
	}
	rep.Facts = len(st.Facts)
	return rep, nil
}

// WriteText renders the report for terminals.
func (r *VerifyReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "state dir %s\n", r.Dir)
	for _, s := range r.Segments {
		status := "ok"
		switch {
		case s.Err != "":
			status = "CORRUPT: " + s.Err
		case s.Truncated:
			status = fmt.Sprintf("torn tail (%d bytes past last intact record; recovery discards it)", s.TornBytes)
		}
		fmt.Fprintf(w, "  %-20s %8d bytes  %6d records  %s\n", s.Name, s.Bytes, s.Records, status)
	}
	fmt.Fprintf(w, "replayed: %d services, %d CRs (%d revoked), %d appointments (%d revoked), %d facts\n",
		r.Services, r.CRs, r.RevokedCRs, r.Appointments, r.RevokedAppts, r.Facts)
	if r.OK {
		fmt.Fprintln(w, "integrity: OK")
	} else {
		fmt.Fprintln(w, "integrity: FAILED")
	}
}
