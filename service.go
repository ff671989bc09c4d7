package morrigan

import (
	"morrigan/internal/service"
)

// Simulation-as-a-service: the multi-tenant HTTP job API over the campaign
// runner (see internal/service). A JobService accepts campaign submissions
// per tenant token, queues them fair-share, executes them through the shared
// reuse layers (cache, result store, optional fabric), and serves merged
// results; cmd/service exposes it as a daemon.
type (
	// JobService is the job-serving API core.
	JobService = service.Service
	// JobServiceOptions configures a JobService (tenants, queue bounds,
	// reuse layers, observer).
	JobServiceOptions = service.Options
	// ServiceTenant declares one tenant: bearer token plus admission quotas.
	ServiceTenant = service.TenantConfig
	// ServiceSubmission is the POST /api/v1/campaigns request body.
	ServiceSubmission = service.Submission
	// ServiceMachineEntry is one machine configuration of a submission's
	// sweep.
	ServiceMachineEntry = service.MachineEntry
	// ServiceCampaignStatus is a campaign's externally visible state.
	ServiceCampaignStatus = service.Status
	// ServiceUsage is one tenant's accounting snapshot.
	ServiceUsage = service.Usage
)

// NewJobService validates the tenant set and starts the dispatcher.
func NewJobService(opt JobServiceOptions) (*JobService, error) {
	return service.New(opt)
}

// ServiceCampaignID derives the canonical campaign id a tenant's submission
// maps to (identical resubmissions address the same campaign).
func ServiceCampaignID(tenant string, sub ServiceSubmission) string {
	return service.CampaignID(tenant, sub)
}
