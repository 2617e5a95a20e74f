package runner

import "encoding/binary"

// An entry is the body of one result-log record: what a Cache stores
// for one job, and the bytes the fleet exchange (GetRaw, PutRaw)
// carries between replicas.
//
//	magic "RCE" | version (1 byte) | pass (1 byte: 0 or 1) |
//	name | config hash | source hash | artifact name |
//	artifact output (the rest of the body, verbatim)
//
// Each of the four strings is its length (uint32 LE) and its bytes. The
// output is stored as the job produced it, so a hit copies it out
// without decoding anything. An entry that fails the magic, version or
// pass byte, or whose lengths overrun the body, reads as a miss: the
// JSON entries of earlier builds are misses too.

const (
	entryMagic   = "RCE"
	entryVersion = 1
	entryHdrSize = len(entryMagic) + 2
)

// entry is a decoded entry. Its fields alias the body it was decoded
// from.
type entry struct {
	name, configHash, sourceHash, artName, output []byte
	pass                                          bool
}

// appendEntry appends the entry of art, stored for the job (name,
// configHash) under sourceHash, to dst.
func appendEntry(dst []byte, name, configHash, sourceHash string, art Artifact) []byte {
	var pass byte
	if art.Pass {
		pass = 1
	}
	dst = append(dst, entryMagic...)
	dst = append(dst, entryVersion, pass)
	for _, s := range [...]string{name, configHash, sourceHash, art.Name} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, art.Output...)
}

// entrySize is the length of the entry appendEntry produces.
func entrySize(name, configHash, sourceHash string, art Artifact) int {
	return entryHdrSize + 4*4 + len(name) + len(configHash) + len(sourceHash) + len(art.Name) + len(art.Output)
}

// decodeEntry parses body, reporting whether it is a well-formed entry.
// It allocates nothing: a length is trusted only once it fits in the
// bytes that remain.
func decodeEntry(body []byte) (entry, bool) {
	if len(body) < entryHdrSize || string(body[:len(entryMagic)]) != entryMagic ||
		body[len(entryMagic)] != entryVersion || body[len(entryMagic)+1] > 1 {
		return entry{}, false
	}
	e := entry{pass: body[len(entryMagic)+1] == 1}
	rest := body[entryHdrSize:]
	for _, f := range [...]*[]byte{&e.name, &e.configHash, &e.sourceHash, &e.artName} {
		if len(rest) < 4 {
			return entry{}, false
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return entry{}, false
		}
		*f, rest = rest[:n:n], rest[n:]
	}
	e.output = rest
	return e, true
}

// DecodeEntry parses an entry's stored bytes, as GetRaw returns them
// and a daemon's /v1/artifact/{key} serves them: the job they were
// stored for (with a nil Run) and its artifact.
func DecodeEntry(data []byte) (Job, Artifact, bool) {
	e, ok := decodeEntry(data)
	if !ok {
		return Job{}, Artifact{}, false
	}
	return Job{Name: string(e.name), ConfigHash: string(e.configHash)}, e.artifact(""), true
}

// artifact copies the entry's artifact out of its body. jobName is the
// name the caller asked for: the artifact usually carries it, and then
// shares its string.
func (e *entry) artifact(jobName string) Artifact {
	name := jobName
	if string(e.artName) != jobName {
		name = string(e.artName)
	}
	return Artifact{Name: name, Output: string(e.output), Pass: e.pass}
}
