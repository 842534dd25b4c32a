package admission

import "tkij/internal/obs"

var (
	mSubmitted = obs.NewCounter("tkij_admission_submitted_total",
		"Accepted Submit calls.")
	mRejected = obs.NewCounter("tkij_admission_rejected_total",
		"Submit calls refused with ErrQueueFull.")
	mCompleted = obs.NewCounter("tkij_admission_completed_total",
		"Accepted Submit calls that returned, whatever their outcome.")
	mQueueWait = obs.NewHistogram("tkij_admission_queue_wait_seconds",
		"Per-query wait from Submit to execution start in seconds.", nil)
	mPlanLeaders = obs.NewCounter("tkij_admission_plan_leaders_total",
		"Submits whose execution planned a miss.")
	mPlanFollowers = obs.NewCounter("tkij_admission_plan_followers_total",
		"Submits whose execution waited on a concurrent planning of its shape.")
)

// Stats is a snapshot of a Server's activity.
type Stats struct {
	// Submitted counts accepted Submit calls; Rejected counts Submits
	// refused with ErrQueueFull.
	Submitted int64
	Rejected  int64
	// Completed counts accepted Submits that returned, whatever their
	// outcome (success, error, cancellation while queued or executing):
	// at quiescence Completed == Submitted.
	Completed int64
	// QueueHighWater is the most Submits ever waiting for a slot at once.
	QueueHighWater int
	// PlanLeaders counts Submits whose execution planned a miss;
	// PlanFollowers counts Submits whose execution waited on a
	// concurrent planning of the same plan key and epoch instead
	// (core.Report.PlanWaited).
	PlanLeaders   int64
	PlanFollowers int64
}
