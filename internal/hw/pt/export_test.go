package pt

// CleanDecode is Decode's clean replay alone, for tests that hold
// Decode to it.
var CleanDecode = decode
