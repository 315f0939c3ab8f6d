package pt

// ReferenceDecode is Decode as the per-instruction reference decoder
// (reference_test.go) computes it, for tests that hold Decode to it.
var ReferenceDecode = refDecode
