package rpc

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjectedFault is the base error for the faults these tests inject
// through Loopback.SetFault.
var ErrInjectedFault = errors.New("injected transport fault")

// FailAll returns a Fault that fails every matching call (a network
// partition between the caller and one service); service=="" severs
// everything. Clear it with SetFault(nil) to heal the partition.
func FailAll(service string) Fault {
	return func(svc, method string) error {
		if service != "" && svc != service {
			return nil
		}
		return fmt.Errorf("%w: partition: %s.%s", ErrInjectedFault, svc, method)
	}
}

// FailNTimes returns a Fault that fails the first n matching calls and then
// passes everything; service=="" matches all services.
func FailNTimes(service string, n int) Fault {
	var mu sync.Mutex
	remaining := n
	return func(svc, method string) error {
		if service != "" && svc != service {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if remaining > 0 {
			remaining--
			return fmt.Errorf("%w: %s.%s", ErrInjectedFault, svc, method)
		}
		return nil
	}
}
