package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sign"
)

var _ core.Journal = (*durable.Log)(nil)

const adminPolicy = `
admin.administrator(A) <- env is_admin(A).
auth appoint_employed_as_doctor(H) <- admin.administrator(A).
`

const hospitalPolicy = `
hospital.doctor <- appt admin.employed_as_doctor(H), env eq(H, st_marys) keep [1].
hospital.auditor <- admin.administrator(A) keep [1].
auth treat <- hospital.doctor.
`

// bootWorld stands up the two-service deployment the daemon would host,
// mirroring oasisd's recovery sequence: the admin service journals to dlog
// and is rebuilt from the recovered state; the hospital service validates
// admin's certificates by callback.
type bootWorld struct {
	broker   *event.Broker
	bus      *rpc.Loopback
	admin    *core.Service
	hospital *core.Service
}

func boot(t *testing.T, dlog *durable.Log, admins ...string) *bootWorld {
	t.Helper()
	w := &bootWorld{broker: event.NewBroker(), bus: rpc.NewLoopback()}
	t.Cleanup(w.broker.Close)

	recovered, err := dlog.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Name:    "admin",
		Policy:  policy.MustParse(adminPolicy),
		Broker:  w.broker,
		Caller:  w.bus,
		Journal: dlog,
	}
	ss := recovered.Services["admin"]
	if ss != nil && len(ss.Secrets) > 0 {
		ring, err := sign.NewKeyRingFromSecrets(ss.Secrets, ss.Retain, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.KeyRing = ring
	}
	w.admin, err = core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.admin.Close)
	if cfg.KeyRing == nil {
		secrets, retain := w.admin.ExportKeys()
		if err := dlog.AppendWait(durable.Record{Op: durable.OpKeys, Service: "admin", Retain: retain, Secrets: secrets}); err != nil {
			t.Fatal(err)
		}
	}
	if ss != nil {
		// Deterministic restore order for the test; the daemon's map
		// iteration order is equally fine since serials are independent.
		serials := make([]uint64, 0, len(ss.CRs))
		for serial := range ss.CRs {
			serials = append(serials, serial)
		}
		sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
		for _, serial := range serials {
			cr := ss.CRs[serial]
			if err := w.admin.RestoreCR(serial, cr.Subject, cr.Holder, cr.Revoked, cr.Reason); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range ss.Appts {
			w.admin.RestoreAppointment(a.Cert, a.Revoked)
		}
	}
	w.admin.Env().Register("is_admin", func(args []names.Term, s names.Substitution) []names.Substitution {
		for _, who := range admins {
			if ext, ok := names.UnifyTuples(args, []names.Term{names.Atom(who)}, s); ok {
				return []names.Substitution{ext}
			}
		}
		return nil
	})
	w.bus.Register("admin", w.admin.Handler())

	w.hospital, err = core.NewService(core.Config{
		Name:   "hospital",
		Policy: policy.MustParse(hospitalPolicy),
		Broker: w.broker,
		Caller: w.bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.hospital.Close)
	w.bus.Register("hospital", w.hospital.Handler())
	return w
}

func adminRole(who string) names.Role {
	return names.MustRole(names.MustRoleName("admin", "administrator", 1), names.Atom(who))
}

func hospRole(name string) names.Role {
	return names.MustRole(names.MustRoleName("hospital", name, 0))
}

// TestCrashRecoveryEndToEnd is the acceptance scenario: issue appointments
// and RMCs, revoke some, kill the daemon without clean shutdown (no
// compaction, torn bytes on the journal tail), restart against the same
// state dir — surviving certificates still validate by callback, revoked
// ones stay denied.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()

	// ---- first life -----------------------------------------------------
	dlog, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w1 := boot(t, dlog, "alice", "bob")

	rmcAlice, err := w1.admin.Activate("alice-key", adminRole("alice"), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	rmcBob, err := w1.admin.Activate("bob-key", adminRole("bob"), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	apptJones, err := w1.admin.Appoint("alice-key", core.AppointmentRequest{
		Kind: "employed_as_doctor", Holder: "dr-jones-key",
		Params: []names.Term{names.Atom("st_marys")},
	}, core.Presented{RMCs: []cert.RMC{rmcAlice}})
	if err != nil {
		t.Fatal(err)
	}
	apptSmith, err := w1.admin.Appoint("alice-key", core.AppointmentRequest{
		Kind: "employed_as_doctor", Holder: "dr-smith-key",
		Params: []names.Term{names.Atom("st_marys")},
	}, core.Presented{RMCs: []cert.RMC{rmcAlice}})
	if err != nil {
		t.Fatal(err)
	}
	// Revocations before the crash: bob's role and smith's appointment
	// must stay dead forever.
	w1.admin.Deactivate(rmcBob.Ref.Serial, "bob fired")
	if !w1.admin.RevokeAppointment(apptSmith.Serial, "smith fired") {
		t.Fatal("revoke appointment failed")
	}

	// Crash: no Compact. Close flushes the queue (a crash that loses the
	// last async group-commit window is allowed to lose those issues —
	// fail-closed — but the test needs the issues on disk to assert
	// survival), then torn garbage lands on the journal tail as if the
	// process died mid-append.
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	wals := journalFiles(t, dir)
	f, err := os.OpenFile(wals[len(wals)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x09, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	// ---- second life ----------------------------------------------------
	dlog2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer dlog2.Close() //nolint:errcheck
	if rs := dlog2.ReplayStats(); rs.TruncatedBytes != 6 {
		t.Fatalf("torn tail not discarded: %+v", rs)
	}
	w2 := boot(t, dlog2, "alice", "bob")

	// Surviving appointment: validates by callback and activates the
	// dependent role at another service.
	if _, err := w2.hospital.Activate("dr-jones-key", hospRole("doctor"),
		core.Presented{Appointments: []cert.AppointmentCertificate{apptJones}}); err != nil {
		t.Fatalf("surviving appointment rejected after restart: %v", err)
	}
	// Revoked appointment: stays denied.
	if _, err := w2.hospital.Activate("dr-smith-key", hospRole("doctor"),
		core.Presented{Appointments: []cert.AppointmentCertificate{apptSmith}}); !errors.Is(err, core.ErrInvalidCredential) {
		t.Fatalf("revoked appointment accepted after restart: %v", err)
	}
	// Surviving RMC: validates by callback against the restored CR and
	// the restored signing ring.
	if _, err := w2.hospital.Activate("alice-key", hospRole("auditor"),
		core.Presented{RMCs: []cert.RMC{rmcAlice}}); err != nil {
		t.Fatalf("surviving RMC rejected after restart: %v", err)
	}
	// Revoked RMC: stays denied.
	if _, err := w2.hospital.Activate("bob-key", hospRole("auditor"),
		core.Presented{RMCs: []cert.RMC{rmcBob}}); !errors.Is(err, core.ErrInvalidCredential) {
		t.Fatalf("revoked RMC accepted after restart: %v", err)
	}

	// New issues post-restart must not collide with restored serials.
	apptNew, err := w2.admin.Appoint("alice-key", core.AppointmentRequest{
		Kind: "employed_as_doctor", Holder: "dr-new-key",
		Params: []names.Term{names.Atom("st_marys")},
	}, core.Presented{RMCs: []cert.RMC{rmcAlice}})
	if err != nil {
		t.Fatal(err)
	}
	if apptNew.Serial == apptJones.Serial || apptNew.Serial == apptSmith.Serial {
		t.Fatalf("serial collision after restart: %d", apptNew.Serial)
	}
	rmcNew, err := w2.admin.Activate("carol-key", adminRole("bob"), core.Presented{})
	if err == nil && (rmcNew.Ref.Serial == rmcAlice.Ref.Serial || rmcNew.Ref.Serial == rmcBob.Ref.Serial) {
		t.Fatalf("CR serial collision after restart: %d", rmcNew.Ref.Serial)
	}

	// Post-restart revocation of a restored appointment works and is
	// itself durable.
	if !w2.admin.RevokeAppointment(apptJones.Serial, "employment ended") {
		t.Fatal("restored appointment could not be revoked")
	}
	if _, err := w2.hospital.Activate("dr-jones-key", hospRole("doctor"),
		core.Presented{Appointments: []cert.AppointmentCertificate{apptJones}}); !errors.Is(err, core.ErrInvalidCredential) {
		t.Fatalf("appointment revoked after restart still accepted: %v", err)
	}

	// ---- third life: clean shutdown this time ---------------------------
	if err := dlog2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := dlog2.Close(); err != nil {
		t.Fatal(err)
	}
	dlog3, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer dlog3.Close() //nolint:errcheck
	if rs := dlog3.ReplayStats(); !rs.SnapshotLoaded {
		t.Fatalf("snapshot not used after clean shutdown: %+v", rs)
	}
	w3 := boot(t, dlog3, "alice", "bob")
	if _, err := w3.hospital.Activate("dr-jones-key", hospRole("doctor"),
		core.Presented{Appointments: []cert.AppointmentCertificate{apptJones}}); !errors.Is(err, core.ErrInvalidCredential) {
		t.Fatalf("post-restart revocation lost across compaction: %v", err)
	}
	if _, err := w3.hospital.Activate("alice-key", hospRole("auditor"),
		core.Presented{RMCs: []cert.RMC{rmcAlice}}); err != nil {
		t.Fatalf("surviving RMC rejected after compaction: %v", err)
	}
}

func journalFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	if len(matches) == 0 {
		t.Fatal("no journal files")
	}
	return matches
}
