# pairing.sh — sourced by check.sh and perf-pair.sh, so that both measure
# a change against the same commit.

# parent_commit prints the commit a change is measured against: HEAD~1 on
# a clean tree (this repository commits one change at a time), HEAD while
# the tree has uncommitted work. It prints nothing when that commit is
# missing, as in a shallow clone.
parent_commit() {
    ref=HEAD~1
    [ -z "$(git status --porcelain 2>/dev/null)" ] || ref=HEAD
    git rev-parse -q --verify "$ref^{commit}" 2>/dev/null || true
}
