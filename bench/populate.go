package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/names"
	"repro/internal/rpc"
)

// workers is the generator's concurrency: at most this many goroutines
// send, each with one request in flight (= nproc on the reference host).
const workers = 2

// callTimeout bounds every generator call; an operation that has not
// answered by then is counted failed.
const callTimeout = 5 * time.Second

var (
	loginUser   = names.MustRoleName("login", "user", 1)
	filesReader = names.MustRoleName("files", "reader", 1)
)

// holder is one principal's credentials as the generator keeps them.
type holder struct {
	Name  string
	Login cert.RMC // login.user(name)
	Files cert.RMC // files.reader(name), the certificate validations present
	Body  []byte   // pre-marshalled POST /validate body presenting Files
}

// creds is everything set-up produced: the three certificate sets the
// validate mix draws from.
type creds struct {
	Live     []holder
	Revoked  []holder // activated, then revoked: must answer valid:false
	Tampered []holder // copies of live holders with one signature byte flipped
}

func (c *creds) of(p pick) *holder {
	switch p.Class {
	case classRevoked:
		return &c.Revoked[p.Index]
	case classTampered:
		return &c.Tampered[p.Index]
	default:
		return &c.Live[p.Index]
	}
}

func validateBody(principal string, r cert.RMC) ([]byte, error) {
	return json.Marshal(gateway.ValidateRequest{Principal: principal, RMC: &r})
}

// activatePair runs the two activations of one principal over OW2:
// login.user, then files.reader presenting the login.user RMC.
func activatePair(cl *core.Client, name string) (holder, error) {
	pid := principalID(name)
	login, err := cl.Activate("login", pid, names.MustRole(loginUser, names.Atom(name)), core.Presented{})
	if err != nil {
		return holder{}, fmt.Errorf("activate login.user(%s): %w", name, err)
	}
	files, err := cl.Activate("files", pid, names.MustRole(filesReader, names.Atom(name)),
		core.Presented{RMCs: []cert.RMC{login}})
	if err != nil {
		return holder{}, fmt.Errorf("activate files.reader(%s): %w", name, err)
	}
	body, err := validateBody(pid, files)
	if err != nil {
		return holder{}, err
	}
	return holder{Name: name, Login: login, Files: files, Body: body}, nil
}

// split runs fn(i) for i in [0,n) on the generator's workers and returns
// the first error.
func split(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// populate is the whole set-up of a started topology: activate, wait for
// the follower, warm the edge. It returns once the topology is ready for
// measured traffic.
func populate(t *topology, pop population, sc scale) (*creds, error) {
	c, err := activateAll(t, pop, sc)
	if err != nil {
		return nil, err
	}
	if err := awaitFollower(t, c); err != nil {
		return nil, err
	}
	return c, warmEdge(t, c, sc)
}

// activateAll activates the whole population against the leader over
// OW2, revokes the known-revoked set and builds the tampered set.
func activateAll(t *topology, pop population, sc scale) (*creds, error) {
	tcp, err := rpc.DialTCPPool(t.LeaderAddr, callTimeout, workers)
	if err != nil {
		return nil, fmt.Errorf("dial leader: %w", err)
	}
	defer tcp.Close()
	cl := core.NewClient(tcp)

	c := &creds{
		Live:    make([]holder, len(pop.Live)),
		Revoked: make([]holder, len(pop.Revoked)),
	}
	err = split(len(pop.Live)+len(pop.Revoked), func(i int) error {
		var err error
		if i < len(pop.Live) {
			c.Live[i], err = activatePair(cl, pop.Live[i])
		} else {
			j := i - len(pop.Live)
			c.Revoked[j], err = activatePair(cl, pop.Revoked[j])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = split(len(c.Revoked), func(i int) error {
		did, err := cl.Revoke("files", c.Revoked[i].Files.Ref.Serial, "bench: known-revoked set")
		if err == nil && !did {
			err = fmt.Errorf("revoke of serial %d was a no-op", c.Revoked[i].Files.Ref.Serial)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Tampered set: evenly spaced live holders, one signature byte flipped.
	c.Tampered = make([]holder, sc.Tampered)
	for i := range c.Tampered {
		h := c.Live[i*len(c.Live)/sc.Tampered]
		h.Files.Sig[i%len(h.Files.Sig)] ^= 0x40
		if h.Body, err = validateBody(principalID(h.Name), h.Files); err != nil {
			return nil, err
		}
		c.Tampered[i] = h
	}
	return c, nil
}

// awaitFollower blocks until the follower refuses the last revocations
// set-up made. The journal is one ordered stream and every activation
// was acknowledged before the first revocation was sent, so the last
// revocation of each worker being visible means everything is.
func awaitFollower(t *topology, c *creds) error {
	v, err := dialValidator(t.FollowerAddr, 1, nil)
	if err != nil {
		return fmt.Errorf("dial follower: %w", err)
	}
	defer v.close()
	var follower *proc
	if t.proc != nil {
		follower = t.proc.follower
	}
	for i := len(c.Revoked) - workers; i < len(c.Revoked); i++ {
		if err := waitUntil("follower catch-up", follower, func() bool {
			valid, err := v.validate(&c.Revoked[i])
			return err == nil && !valid
		}); err != nil {
			return err
		}
	}
	if valid, err := v.validate(&c.Live[len(c.Live)-1]); err != nil || !valid {
		return fmt.Errorf("follower refuses a live certificate after catch-up (err=%v)", err)
	}
	return nil
}

// warmEdge presents every hot-set certificate once through the gateway,
// so the measured phases start with the edge cache as steady traffic
// would leave it.
func warmEdge(t *topology, c *creds, sc scale) error {
	gw := newGatewayClient(t.GatewayURL)
	defer gw.close()
	for i := 0; i < sc.Hot; i++ {
		valid, err := gw.validate(c.Live[i].Body)
		if err != nil {
			return fmt.Errorf("warm edge cache: %w", err)
		}
		if !valid {
			return fmt.Errorf("warm edge cache: live certificate of %s refused", c.Live[i].Name)
		}
	}
	return nil
}
