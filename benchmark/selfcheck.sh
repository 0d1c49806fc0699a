#!/usr/bin/env bash
# Runs every workload twice untraced and once traced and fails if the two
# sets disagree by more than a metric's bound, if an exact count differs, if
# a trace does not close or if tracing costs too much. Takes the same
# --workload/--seed/--seconds options as run.sh.
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" selfcheck "$@"
