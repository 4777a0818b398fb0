// Command benchtab regenerates every figure/scenario experiment of the
// paper (see DESIGN.md's experiment index) and prints paper-style rows.
//
// Usage:
//
//	benchtab                 # run every experiment
//	benchtab -exp fig5       # run one experiment
//	benchtab -list           # list experiment ids
//
// Experiment ids: auth baselines fig1 fig2 fig3 fig4 fig5 sect5 sect6 soak
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()
	if err := run(*exp, *list); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

var experimentsTable = map[string]func(*tabwriter.Writer) error{
	"fig1":      runFig1,
	"fig2":      runFig2,
	"fig3":      runFig3,
	"fig4":      runFig4,
	"fig5":      runFig5,
	"auth":      runAuth,
	"sect5":     runSect5,
	"sect6":     runSect6,
	"baselines": runBaselines,
	"soak":      runSoak,
}

func run(exp string, list bool) error {
	ids := make([]string, 0, len(experimentsTable))
	for id := range experimentsTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush() //nolint:errcheck
	if exp != "" {
		f, ok := experimentsTable[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", exp)
		}
		return f(w)
	}
	for _, id := range ids {
		if err := experimentsTable[id](w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig1(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E1 / Fig. 1: role dependency through prerequisite roles ==")
	fmt.Fprintln(w, "depth\tsessions\tcerts\tcallback validations\ttotal activate time")
	for _, depth := range []int{1, 2, 4, 8} {
		for _, fanout := range []int{1, 4} {
			row, err := experiments.RunFig1(depth, fanout)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\n",
				row.Depth, row.Fanout, row.CertsIssued, row.Validations, row.ActivateTime.Round(time.Microsecond))
		}
	}
	return nil
}

func runFig2(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E2 / Fig. 2: role entry + service use, callback vs cached validation ==")
	fmt.Fprintln(w, "mode\tinvocations\tcallbacks\tcache hits\tper-invoke")
	for _, cached := range []bool{false, true} {
		row, err := experiments.RunFig2(1000, cached)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\n",
			row.Mode, row.Invocations, row.Callbacks, row.CacheHits, row.PerInvoke.Round(100*time.Nanosecond))
	}
	return nil
}

func runFig3(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E3 / Fig. 3: cross-domain EHR session ==")
	fmt.Fprintln(w, "hospitals\tpatients\trequests\tappends\taudit records\taudit complete\tper-op")
	for _, cfg := range []struct{ h, p, ops int }{
		{1, 100, 500},
		{4, 1000, 2000},
		{16, 10000, 4000},
	} {
		row, err := experiments.RunFig3(cfg.h, cfg.p, cfg.ops)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			row.Hospitals, row.Patients, row.Requests, row.Appends,
			row.AuditRecords, row.AuditOK, row.PerOp.Round(100*time.Nanosecond))
	}
	return nil
}

func runFig4(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E4 / Fig. 4: RMC issue/validate cost by parameter count ==")
	fmt.Fprintln(w, "params\tissue\tvalidate")
	for _, p := range []int{0, 2, 4, 8} {
		row, err := experiments.RunFig4(p, 5000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%v\t%v\n", row.Params, row.IssueNs, row.ValidateNs)
	}
	adv, err := experiments.RunFig4Adversarial(2000)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "attack\ttrials\taccepted (must be 0)")
	fmt.Fprintf(w, "tamper\t%d\t%d\n", adv.Trials, adv.TamperAccepted)
	fmt.Fprintf(w, "theft\t%d\t%d\n", adv.Trials, adv.TheftAccepted)
	fmt.Fprintf(w, "forgery\t%d\t%d\n", adv.Trials, adv.ForgeryAccepted)
	fmt.Fprintf(w, "appt theft\t%d\t%d\n", adv.Trials, adv.ApptTheftAccepted)
	return nil
}

func runFig5(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E5 / Fig. 5: active revocation cascade ==")
	fmt.Fprintln(w, "shape\ttarget\troles\tcollapse latency\tevents\tcorrect subtree")
	for _, cfg := range []struct {
		shape  string
		n      int
		target string
	}{
		{"chain", 10, "root"}, {"chain", 100, "root"}, {"chain", 100, "leaf"},
		{"star", 10, "root"}, {"star", 100, "root"}, {"star", 1000, "root"},
		{"star", 1000, "leaf"},
	} {
		row, err := experiments.RunFig5Target(cfg.n, cfg.shape, cfg.target)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%d\t%v\n",
			row.Shape, row.Target, row.Roles, row.RevokeLatency.Round(time.Microsecond),
			row.EventsDelivered, row.AllCollapsed)
	}
	return nil
}

func runAuth(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E6 / Sect. 4.1: ISO/9798 challenge-response session binding ==")
	row, err := experiments.RunAuth(500)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "rounds\tper round\tall honest passed\twrong-key accepted (must be 0)")
	fmt.Fprintf(w, "%d\t%v\t%v\t%d\n", row.Rounds, row.PerRound.Round(time.Microsecond),
		row.AllPassed, row.WrongKeyOK)
	return nil
}

func runSect5(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E7 / Sect. 5: visiting doctor across domains ==")
	fmt.Fprintln(w, "doctors\trefused without SLA\tactivated under SLA\tper activation")
	for _, n := range []int{10, 100, 500} {
		row, err := experiments.RunSect5(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n",
			row.Doctors, row.RefusedNoSLA, row.Activated, row.PerActivation.Round(100*time.Nanosecond))
	}
	return nil
}

func runSect6(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E8 / Sect. 6: web of trust under byzantine minorities ==")
	fmt.Fprintln(w, "population\tbyz frac\tnaive accepts bad\twary accepts bad\thonest accepted\tdecide time")
	for _, frac := range []float64{0, 0.1, 0.2, 0.4} {
		row, err := experiments.RunSect6(100, frac, 20)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%.0f%%\t%d/%d\t%d/%d\t%d/%d\t%v\n",
			row.Population, row.ByzantineFrac*100,
			row.NaiveAcceptBad, row.BadTotal,
			row.WaryAcceptBad, row.BadTotal,
			row.HonestAcceptedOK, row.HonestTotal,
			row.DecideTime.Round(time.Millisecond))
	}
	return nil
}

func runSoak(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== Soak: healthcare workload with continuous churn, invariant-checked ==")
	fmt.Fprintln(w, "doctors\tpatients\tops\treads\tdenied\trevocations\tchurns\tviolations (must be 0)\tper-op")
	for _, cfg := range []struct{ d, p, ops int }{
		{3, 20, 1000},
		{10, 200, 5000},
		{20, 1000, 10000},
	} {
		row, err := experiments.RunSoak(cfg.d, cfg.p, cfg.ops, 42)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			row.Doctors, row.Patients, row.Ops, row.Reads, row.Denied,
			row.Revocations, row.Churns, row.Violations, row.PerOp.Round(100*time.Nanosecond))
	}
	return nil
}

func runBaselines(w *tabwriter.Writer) error {
	fmt.Fprintln(w, "== E9a: policy size — OASIS parametrised rules vs RBAC0 vs ACLs ==")
	fmt.Fprintln(w, "doctors\tpatients/doctor\tOASIS rules\tRBAC0 roles\tRBAC0 assignments\tACL entries")
	for _, cfg := range []struct{ d, p int }{{10, 10}, {50, 50}, {200, 100}} {
		row := experiments.RunPolicySize(cfg.d, cfg.p)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Doctors, row.PatientsPerDoctor, row.OASISRules,
			row.RBAC0Roles, row.RBAC0Assignments, row.ACLEntries)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== E9b: revocation — active event channels vs polling ==")
	fmt.Fprintln(w, "certs\tpoll interval\tactive latency\tpolling latency\tpoll msgs/hr\tactive events")
	for _, cfg := range []struct {
		certs    int
		interval time.Duration
	}{
		{100, time.Second}, {100, 10 * time.Second}, {100, time.Minute},
	} {
		row, err := experiments.RunRevocationComparison(cfg.certs, cfg.interval, 0.5)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%d\t%d\n",
			row.Certificates, row.PollInterval,
			row.ActiveLatency.Round(time.Microsecond), row.PollingLatency,
			row.PollMessages, row.ActiveEvents)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== E9c: stand-in via appointment vs delegation chains ==")
	fmt.Fprintln(w, "chain length\tappointment revokes\tdelegation cascade ops\tdangling without cascade")
	for _, n := range []int{1, 5, 20} {
		row := experiments.RunDelegationComparison(n)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n",
			row.ChainLen, row.AppointmentRevokes,
			row.DelegationCascadeOps, row.DanglingWithoutCascade)
	}
	return nil
}
