package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// fig34Golden is the SHA-256 of RenderFig3 followed by RenderFig4 for
// fig34GoldenConfig. It pins the Figure 3/4 bytes inside `go test ./...`:
// any change to the generator's draws, the overhead analysis or the
// rational arithmetic beneath it that moves one printed digit fails here.
// Regenerate it only for a reviewed change to the figures' output.
const fig34Golden = "4171b526ee77899ed55b0d7accb4609d14ffc48babaaf337ea84715ba127e688"

func fig34GoldenConfig() Fig3Config {
	return Fig3Config{Ns: []int{50, 250}, Steps: 12, SetsPerStep: 4, Seed: 2, Workers: 1}
}

func TestFig34GoldenDigest(t *testing.T) {
	cfg := fig34GoldenConfig()
	data := Fig3(cfg)
	var b strings.Builder
	RenderFig3(&b, cfg.Ns, data)
	RenderFig4(&b, cfg.Ns, data)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != fig34Golden {
		t.Errorf("Figure 3/4 digest = %s, want %s; output:\n%s", got, fig34Golden, b.String())
	}
}
