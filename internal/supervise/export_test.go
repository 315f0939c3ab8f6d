package supervise

// Resume and Checkpoint are the restore and save steps a Supervisor
// takes at its round boundaries, for tests that kill and resume a
// campaign between them by hand.
var (
	Resume     = resume
	Checkpoint = checkpoint
)
