package shard

// ResultSum exposes the reply checksum to the external test package, whose
// plan oracle verifies every partial it moves across the wire.
var ResultSum = resultSum
