// Command oasisctl is the client for oasisd: it manages a session wallet
// on disk and performs role activation, method invocation, and appointment
// requests against OASIS services over TCP.
//
//	oasisctl new-session -wallet w.json
//	oasisctl activate    -wallet w.json -addr :7070 -role 'login.user(alice)'
//	oasisctl invoke      -wallet w.json -addr :7070 -service files -method read -args 'report'
//	oasisctl appoint     -wallet w.json -addr :7070 -service admin -kind employed_as_doctor \
//	                     -holder dr-jones-key -params 'st_marys'
//	oasisctl show        -wallet w.json
//
// It also verifies a daemon's durable state directory offline (checksums,
// torn tails, replayable totals) without touching the files, and converts
// a directory written by a pre-binary-journal oasisd, once, with the
// daemon stopped:
//
//	oasisctl state verify  -state-dir /var/lib/oasisd
//	oasisctl state migrate -state-dir /var/lib/oasisd
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cert"
	"repro/internal/cmdutil"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/rpc"
)

// wallet is the on-disk session state. The principal id stands in for the
// session key; the daemon deployment relies on issuer-side principal
// checks rather than interactive challenge-response.
type wallet struct {
	Principal    string                        `json:"principal"`
	RMCs         []cert.RMC                    `json:"rmcs,omitempty"`
	Appointments []cert.AppointmentCertificate `json:"appointments,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "oasisctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: oasisctl <new-session|activate|invoke|appoint|logout|show|state> [flags]")
	}
	cmd, rest := args[0], args[1:]
	if cmd == "state" {
		return stateCmd(rest)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		walletPath = fs.String("wallet", "oasis-wallet.json", "session wallet file")
		addr       = fs.String("addr", "127.0.0.1:7070", "oasisd address")
		service    = fs.String("service", "", "target service name")
		roleSpec   = fs.String("role", "", "role instance, e.g. 'login.user(alice)'")
		method     = fs.String("method", "", "method name")
		argList    = fs.String("args", "", "comma-separated ground terms")
		kind       = fs.String("kind", "", "appointment kind")
		holder     = fs.String("holder", "", "appointment holder principal")
		params     = fs.String("params", "", "appointment parameters")
		expires    = fs.Duration("expires", 0, "appointment validity (0 = no expiry)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}

	switch cmd {
	case "new-session":
		return newSession(*walletPath)
	case "show":
		return show(*walletPath)
	case "logout":
		return logout(*walletPath, *addr, *service)
	case "activate":
		return activate(*walletPath, *addr, *roleSpec)
	case "invoke":
		return invoke(*walletPath, *addr, *service, *method, *argList)
	case "appoint":
		return appoint(*walletPath, *addr, *service, *kind, *holder, *params, *expires)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// stateCmd handles the offline `state` subcommands. verify reads the
// directory without modifying it, so it is safe to run against a live
// daemon's state dir; migrate rewrites a legacy (JSON journal) directory
// in the current format and wants the daemon stopped.
func stateCmd(args []string) error {
	if len(args) == 0 || (args[0] != "verify" && args[0] != "migrate") {
		return fmt.Errorf("usage: oasisctl state <verify|migrate> -state-dir <dir> [-json]")
	}
	fs := flag.NewFlagSet("state "+args[0], flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "daemon state directory")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("-state-dir is required")
	}
	if args[0] == "migrate" {
		// The one place encoding/json still meets a journal.
		rep, err := durable.MigrateLegacy(*stateDir, json.Unmarshal)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(rep)
		}
		if !rep.Converted {
			fmt.Printf("state dir %s: no legacy journal files, nothing to do\n", *stateDir)
			return nil
		}
		fmt.Printf("state dir %s: %d legacy journal records folded into snap gen %d, %d legacy files removed\n",
			*stateDir, rep.Records, rep.SnapshotGen, len(rep.Removed))
		return nil
	}
	rep, err := durable.Verify(*stateDir)
	if err != nil {
		return err
	}
	if *asJSON {
		if err := printJSON(rep); err != nil {
			return err
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	if !rep.OK {
		return fmt.Errorf("state verification failed")
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

func loadWallet(path string) (*wallet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read wallet (run new-session first?): %w", err)
	}
	var w wallet
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("decode wallet: %w", err)
	}
	return &w, nil
}

func saveWallet(path string, w *wallet) error {
	b, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o600); err != nil {
		return fmt.Errorf("write wallet: %w", err)
	}
	return nil
}

// client dials the daemon and wraps the connection in the resilient
// caller: per-call deadlines, retries for idempotent methods, and a
// circuit breaker, so a flaky daemon yields a quick typed error instead
// of a hung CLI.
func client(addr string) (*core.Client, func(), error) {
	conn, err := rpc.DialTCP(addr, 10*time.Second)
	if err != nil {
		return nil, nil, err
	}
	rc := rpc.NewResilientCaller(conn, rpc.ResilientConfig{CallTimeout: 15 * time.Second})
	return core.NewClient(rc), func() { conn.Close() }, nil //nolint:errcheck
}

func newSession(path string) error {
	sess, err := core.NewSession(nil)
	if err != nil {
		return err
	}
	w := &wallet{Principal: sess.PrincipalID()}
	if err := saveWallet(path, w); err != nil {
		return err
	}
	fmt.Printf("new session %s (wallet %s)\n", w.Principal[:16]+"...", path)
	return nil
}

func show(path string) error {
	w, err := loadWallet(path)
	if err != nil {
		return err
	}
	fmt.Printf("principal: %s\n", w.Principal)
	for _, r := range w.RMCs {
		fmt.Printf("rmc: %s issued by %s\n", r.Role, r.Ref)
	}
	for _, a := range w.Appointments {
		fmt.Printf("appointment: %s.%s holder=%s\n", a.Issuer, a.Kind, a.Holder)
	}
	return nil
}

func activate(path, addr, roleSpec string) error {
	if roleSpec == "" {
		return fmt.Errorf("-role is required")
	}
	w, err := loadWallet(path)
	if err != nil {
		return err
	}
	role, err := cmdutil.ParseRoleInstance(roleSpec)
	if err != nil {
		return err
	}
	cli, done, err := client(addr)
	if err != nil {
		return err
	}
	defer done()
	rmc, err := cli.Activate(role.Name.Service, w.Principal, role,
		core.Presented{RMCs: w.RMCs, Appointments: w.Appointments})
	if err != nil {
		return err
	}
	w.RMCs = append(w.RMCs, rmc)
	if err := saveWallet(path, w); err != nil {
		return err
	}
	fmt.Printf("activated %s (RMC %s)\n", rmc.Role, rmc.Ref)
	return nil
}

func invoke(path, addr, service, method, argList string) error {
	if service == "" || method == "" {
		return fmt.Errorf("-service and -method are required")
	}
	w, err := loadWallet(path)
	if err != nil {
		return err
	}
	args, err := cmdutil.ParseTerms(argList)
	if err != nil {
		return err
	}
	cli, done, err := client(addr)
	if err != nil {
		return err
	}
	defer done()
	out, err := cli.Invoke(service, w.Principal, method, args,
		core.Presented{RMCs: w.RMCs, Appointments: w.Appointments})
	if err != nil {
		return err
	}
	if len(out) == 0 {
		fmt.Println("ok (authorized; the service bound no output for this method)")
		return nil
	}
	fmt.Printf("%s\n", out)
	return nil
}

// logout ends the session at the named service: the service deactivates
// every credential record issued to this principal, and the revocation
// events collapse dependent roles everywhere.
func logout(path, addr, service string) error {
	if service == "" {
		return fmt.Errorf("-service is required (the service holding the initial role)")
	}
	w, err := loadWallet(path)
	if err != nil {
		return err
	}
	conn, err := rpc.DialTCP(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck
	body, err := json.Marshal(map[string]string{"principal": w.Principal})
	if err != nil {
		return err
	}
	// end_session is idempotent, so the resilient caller may retry it.
	rc := rpc.NewResilientCaller(conn, rpc.ResilientConfig{CallTimeout: 15 * time.Second})
	out, err := rc.Call(service, "end_session", body)
	if err != nil {
		return err
	}
	// Drop the now-dead certificates from the wallet.
	var kept []cert.RMC
	for _, r := range w.RMCs {
		if r.Ref.Issuer != service {
			kept = append(kept, r)
		}
	}
	w.RMCs = kept
	if err := saveWallet(path, w); err != nil {
		return err
	}
	fmt.Printf("logged out at %s: %s\n", service, out)
	return nil
}

func appoint(path, addr, service, kind, holder, params string, expires time.Duration) error {
	if service == "" || kind == "" || holder == "" {
		return fmt.Errorf("-service, -kind and -holder are required")
	}
	w, err := loadWallet(path)
	if err != nil {
		return err
	}
	terms, err := cmdutil.ParseTerms(params)
	if err != nil {
		return err
	}
	var expiresAt time.Time
	if expires > 0 {
		expiresAt = time.Now().Add(expires)
	}
	cli, done, err := client(addr)
	if err != nil {
		return err
	}
	defer done()
	appt, err := cli.Appoint(service, w.Principal, core.AppointmentRequest{
		Kind:      kind,
		Holder:    holder,
		Params:    terms,
		ExpiresAt: expiresAt,
	}, core.Presented{RMCs: w.RMCs, Appointments: w.Appointments})
	if err != nil {
		return err
	}
	b, err := cert.MarshalAppointment(appt)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}
