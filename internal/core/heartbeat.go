package core

import (
	"repro/internal/cert"
	"repro/internal/event"
)

// EmitHeartbeats publishes one heartbeat per live credential record on the
// service's heartbeat channel (Fig. 5: "heartbeats or change events").
// Deployments drive this from a ticker; tests and the experiment harness
// call it directly. It returns the number of heartbeats published.
func (s *Service) EmitHeartbeats() int {
	serials := s.crs.allSerials()

	subjects := make([]string, 0, len(serials))
	for _, serial := range serials {
		if status := s.records.Status(serial); !status.Exists || status.Revoked {
			continue
		}
		subjects = append(subjects, cert.CRR{Issuer: s.name, Serial: serial}.String())
	}

	topic := TopicHeartbeat(s.name)
	now := s.clk.Now()
	for _, subject := range subjects {
		s.broker.Publish(event.Event{ //nolint:errcheck // liveness is best-effort
			Topic:   topic,
			Kind:    event.KindHeartbeat,
			Subject: subject,
			At:      now,
		})
	}
	return len(subjects)
}

// WatchLiveness registers a foreign certificate with a heartbeat monitor
// so that issuer silence fails safe: when the issuer's heartbeats stop,
// the monitor publishes a synthetic revocation on the certificate's event
// channel, which clears any cached validation (the ECR proxy) and
// collapses roles whose membership rules depend on it — rather than
// trusting a stale cached result indefinitely.
func WatchLiveness(m *event.HeartbeatMonitor, ref cert.CRR) error {
	return m.Watch(ref.String(), TopicHeartbeat(ref.Issuer), TopicCR(ref))
}
