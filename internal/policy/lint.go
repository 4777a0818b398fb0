package policy

import (
	"fmt"
	"sort"
	"strings"
)

// The paper stresses that "it is essential to maintain consistency as
// policies evolve" (Sect. 1). This file implements a static consistency
// checker over a set of service policies: it cannot prove policies
// *correct*, but it catches the referential drift that creeps in when
// independently managed services evolve — conditions naming roles no
// service defines, appointment kinds no appointer rule can issue,
// environmental predicates that are never registered, and dead rules.

// Issue is one consistency finding.
type Issue struct {
	// Service is the policy the issue was found in ("" for global
	// findings).
	Service string
	// Rule is the rule's head (or auth method) the issue concerns.
	Rule string
	// Severity is "error" (will always fail at runtime) or "warning"
	// (suspicious but possibly intentional).
	Severity string
	// Msg describes the problem.
	Msg string
}

// String renders the issue for logs.
func (i Issue) String() string {
	where := i.Service
	if i.Rule != "" {
		where += ": " + i.Rule
	}
	return fmt.Sprintf("[%s] %s: %s", i.Severity, where, i.Msg)
}

// Checker accumulates the federation-wide view needed for consistency
// checking: every service's policy and the environmental predicates each
// service has registered.
type Checker struct {
	policies   map[string]Policy
	predicates map[string]map[string]bool // service -> predicate names
	externals  map[string]bool            // services known to exist elsewhere
}

// NewChecker creates an empty checker.
func NewChecker() *Checker {
	return &Checker{
		policies:   make(map[string]Policy),
		predicates: make(map[string]map[string]bool),
		externals:  make(map[string]bool),
	}
}

// AddExternal declares a service that exists outside this checker's view
// (e.g. behind a -peer in a multi-process deployment): references to its
// roles and appointments cannot be verified here and are reported as
// warnings instead of errors.
func (c *Checker) AddExternal(name string) { c.externals[name] = true }

// AddService registers a service's policy and its known environmental
// predicate names (pass the registry's contents; builtins are implied).
func (c *Checker) AddService(name string, pol Policy, predicateNames []string) {
	c.policies[name] = pol
	preds := make(map[string]bool, len(predicateNames)+6)
	for _, p := range predicateNames {
		preds[p] = true
	}
	for _, builtin := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		preds[builtin] = true
	}
	c.predicates[name] = preds
}

// Check returns all findings, deterministically ordered.
func (c *Checker) Check() []Issue {
	var issues []Issue

	// Index what is defined where.
	definedRoles := make(map[string]bool) // RoleName.String()
	appointable := make(map[string]bool)  // issuer.kind with an appointer rule
	usedRoles := make(map[string]bool)    // role names used as conditions
	usedAppts := make(map[string]bool)    // issuer.kind used as conditions
	for svc, pol := range c.policies {
		for _, r := range pol.Rules {
			definedRoles[r.Head.Name.String()] = true
		}
		for _, a := range pol.Auth {
			if strings.HasPrefix(a.Method, appointRulePrefix) {
				kind := strings.TrimPrefix(a.Method, appointRulePrefix)
				appointable[svc+"."+kind] = true
			}
		}
	}

	services := make([]string, 0, len(c.policies))
	for svc := range c.policies {
		services = append(services, svc)
	}
	sort.Strings(services)

	for _, svc := range services {
		pol := c.policies[svc]
		preds := c.predicates[svc]
		checkBody := func(ruleName string, body []Cond) {
			for _, cond := range body {
				switch cnd := cond.(type) {
				case RoleCond:
					usedRoles[cnd.Role.Name.String()] = true
					if !definedRoles[cnd.Role.Name.String()] {
						if c.externals[cnd.Role.Name.Service] {
							issues = append(issues, Issue{
								Service: svc, Rule: ruleName, Severity: "warning",
								Msg: fmt.Sprintf("prerequisite role %s is defined by an external service; not verifiable here", cnd.Role.Name),
							})
						} else {
							issues = append(issues, Issue{
								Service: svc, Rule: ruleName, Severity: "error",
								Msg: fmt.Sprintf("prerequisite role %s is not defined by any registered service", cnd.Role.Name),
							})
						}
					}
				case ApptCond:
					key := cnd.Issuer + "." + cnd.Kind
					usedAppts[key] = true
					if c.externals[cnd.Issuer] {
						issues = append(issues, Issue{
							Service: svc, Rule: ruleName, Severity: "warning",
							Msg: fmt.Sprintf("appointment %s is issued by an external service; not verifiable here", key),
						})
					} else if _, known := c.policies[cnd.Issuer]; !known {
						issues = append(issues, Issue{
							Service: svc, Rule: ruleName, Severity: "warning",
							Msg: fmt.Sprintf("appointment issuer %s is not a registered service (external issuer?)", cnd.Issuer),
						})
					} else if !appointable[key] {
						issues = append(issues, Issue{
							Service: svc, Rule: ruleName, Severity: "error",
							Msg: fmt.Sprintf("no appointer rule auth %s%s at service %s", appointRulePrefix, cnd.Kind, cnd.Issuer),
						})
					}
				case EnvCond:
					if !preds[cnd.Name] {
						issues = append(issues, Issue{
							Service: svc, Rule: ruleName, Severity: "error",
							Msg: fmt.Sprintf("environmental predicate %q is not registered", cnd.Name),
						})
					}
				}
			}
		}
		for _, r := range pol.Rules {
			checkBody(r.Head.String(), r.Body)
		}
		for _, a := range pol.Auth {
			checkBody("auth "+a.Method, a.Body)
		}
	}

	// Dead definitions: roles never used as a condition anywhere and
	// guarding nothing (no auth rule mentions them) are flagged; initial
	// roles are typically used, so this catches renamed-but-forgotten
	// roles.
	for _, svc := range services {
		pol := c.policies[svc]
		for _, r := range pol.Rules {
			name := r.Head.Name.String()
			if usedRoles[name] {
				continue
			}
			issues = append(issues, Issue{
				Service: svc, Rule: r.Head.String(), Severity: "warning",
				Msg: "role is defined but never required by any rule (dead role?)",
			})
		}
		// Appointer rules whose kind no policy consumes.
		for _, a := range pol.Auth {
			if !strings.HasPrefix(a.Method, appointRulePrefix) {
				continue
			}
			kind := strings.TrimPrefix(a.Method, appointRulePrefix)
			if !usedAppts[svc+"."+kind] {
				issues = append(issues, Issue{
					Service: svc, Rule: "auth " + a.Method, Severity: "warning",
					Msg: fmt.Sprintf("appointment kind %q is issuable but no activation rule consumes it", kind),
				})
			}
		}
	}

	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Service != issues[j].Service {
			return issues[i].Service < issues[j].Service
		}
		if issues[i].Rule != issues[j].Rule {
			return issues[i].Rule < issues[j].Rule
		}
		return issues[i].Msg < issues[j].Msg
	})
	return issues
}

// appointRulePrefix mirrors core's appointer-rule naming convention
// (`auth appoint_<kind>`); duplicated here to keep the policy package
// independent of the engine.
const appointRulePrefix = "appoint_"

// Errors filters the findings to severity "error".
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == "error" {
			out = append(out, i)
		}
	}
	return out
}
