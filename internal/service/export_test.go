package service

// MaxBodyBytes lets the e2e harness check its largest request against
// the server's body cap.
const MaxBodyBytes = maxBodyBytes
