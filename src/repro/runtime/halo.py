"""Rank-local operators and halo-exchange structures from a partition.

Parallel SEM works exactly as in SPECFEM3D (paper Sec. III): each rank
owns a set of elements, assembles *partial* stiffness contributions for
its local DOFs, and the DOFs shared with neighbouring ranks are summed by
point-to-point exchange — the synchronization that happens at *every LTS
substep* in Fig. 1.

:func:`build_rank_layout` consumes any assembler exposing
``element_dofs``, ``M`` and ``kernel(ids)`` (every SEM assembler, 1D to
3D) plus an element partition vector, and produces a :class:`RankLayout`
the distributed solvers run on.  A rank's product is its share of the
serial ``M^{-1} K`` — its owned elements' partial stiffness, rows scaled
by the one ``1/M`` (:func:`repro.sem.matfree.inverse_mass`, Dirichlet
rows 0) — from the serial operator's own builder,
:func:`repro.sem.matfree.stiffness_share`: no rank ever forms a matrix.
The executors only call ``K @ u``, so they are physics-agnostic: the
three physics assemblers — scalar acoustic (with variable density),
multi-component isotropic elastic and general anisotropic elastic, each
generic over dimension — build layouts identically.  The
component-interleaved DOF ids flow through local numbering, ownership
and the halo exchange like any other DOFs, and each rank's kernel is
built from its owned elements' slice of the per-element parameters
(including per-element Voigt stiffness tensors).

The layout is one pass per rank over its elements' DOFs — a flag
scatter and one scan give its sorted ids, a ``uint8`` (or wider) count
of the lower ranks already holding each gives its owner mask, and an
``int32`` local-id table its element connectivity — then one pass that
pairs the sharers of every shared DOF, sorted once on unique keys, each
channel carrying its sender's local positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.newmark import ReplicaMap
from repro.sem.matfree import inverse_mass, stiffness_share
from repro.util.errors import PartitionError
from repro.util.validation import require


@dataclass
class ExchangePlan:
    """Precomputed halo exchange over all ranks.

    For every (rank, peer) channel the plan stores the local indices of
    the shared DOFs: the sender packs its partial sums from there, the
    receiver adds the message there.  Both channel directions order
    shared DOFs by global id, so position ``j`` of ``r -> p`` and of
    ``p -> r`` name the same DOF.

    A forked plan (:meth:`fork`) owns one solver's :attr:`payload`: every
    message of one exchange in one buffer, receiver-major — a receiver's
    channels contiguous, in its ascending ``peers`` order — with
    ``slots[r][i]`` the view the message from ``peers[r][i]`` to ``r``
    occupies.  The sender packs into that view and sends the view itself
    (:meth:`repro.runtime.comm.RankComm.Isend`), so one exchange
    allocates no payload and moves each one once, in the pack.

    Channels may be *filtered* by per-rank structural row supports (the
    level-restricted operators' reachable rows): a shared-DOF position is
    kept only if at least one side can contribute a nonzero there, which
    both sides derive identically.  Channels whose keep-mask is empty
    are dropped from *both* sides — no message is sent at all, which is
    what lets per-level exchange volume shrink with the level's footprint
    while ``check_no_leaks()`` still holds.  Peers and indices never
    change: an LTS plan relabels them into a new plan.
    """

    peers: list[list[int]]  # per rank, ascending peer ids with a non-empty channel
    indices: list[list[np.ndarray]]  # per rank, aligned pack/unpack indices
    payload: np.ndarray = field(default_factory=lambda: np.empty(0))
    slots: list[list[np.ndarray]] = field(default_factory=list)

    def fork(self) -> "ExchangePlan":
        """The same channels with a payload buffer of its own."""
        sizes = [len(ix) for per_rank in self.indices for ix in per_rank]
        payload = np.empty(sum(sizes))
        views = iter(np.split(payload, np.cumsum(sizes)[:-1]))
        slots = [[next(views) for _ in per_rank] for per_rank in self.indices]
        return replace(self, payload=payload, slots=slots)

    def routes(self) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
        """Every channel in payload order as ``(dst, src, dst indices,
        src indices)``: the receiver's unpack and the sender's pack
        indices of the message ``src -> dst``."""
        return [
            (r, p, idx, self.indices[p][self.peers[p].index(r)])
            for r, (peers, per_rank) in enumerate(zip(self.peers, self.indices))
            for p, idx in zip(peers, per_rank)
        ]

    @property
    def n_ranks(self) -> int:
        return len(self.peers)

    def messages_per_exchange(self) -> int:
        """Point-to-point messages one exchange sends (skipped channels
        excluded)."""
        return int(sum(len(p) for p in self.peers))

    def total_doubles(self) -> int:
        """Total doubles moved per exchange, all channels, one direction."""
        return int(sum(len(ix) for per_rank in self.indices for ix in per_rank))

    def workspace_bytes(self) -> int:
        """Bytes held in the payload buffer."""
        return int(self.payload.nbytes)


@dataclass
class RankLayout(ReplicaMap):
    """Everything the distributed solvers need, per rank: the replica
    map of the partition (:class:`~repro.core.newmark.ReplicaMap` —
    ``gdofs``, each rank's sorted global DOF ids; ``owner``, the mask of
    those it owns, the lowest rank among sharers; ``scatter`` and
    ``gather``) plus:

    Attributes
    ----------
    K_local:
        Per rank, the partial ``M^{-1} K`` from *owned elements only* on
        local numbering, so the cross-rank sum is the serial operator's
        product, applied as ``K_local[r] @ u`` (a matrix-free stiffness
        operator; any object with that product runs).  Its rows carry
        ``1/M`` — the fully-summed diagonal mass, collected once at setup
        as production codes do — with the Dirichlet row mask folded in (0
        on a masked row), and its columns the Dirichlet column mask, as the serial
        operator holds them: on one rank it is that operator, entry for
        entry (a fused share's level products are raw: see ``row_scale``).
    channels:
        The halo channels: a bufferless :class:`ExchangePlan` over every
        shared DOF.
    """

    K_local: list
    channels: ExchangePlan
    dof_level_local: list[np.ndarray] = field(default_factory=list)

    def exchange_channels(
        self, supports: list[np.ndarray] | None = None
    ) -> ExchangePlan:
        """The halo channels as a bufferless :class:`ExchangePlan` (peers
        and indices: what solvers share; each forks its own payload).

        ``supports`` optionally gives, per rank, a boolean mask over
        local DOFs of the rows the rank's (possibly level-restricted)
        stiffness can structurally write.  Shared-DOF positions where
        *neither* side's support reaches are dropped — their exchanged
        values are structural zeros — and channels left empty disappear
        entirely (no message in either direction).  With ``supports=None``
        every channel is kept whole: :attr:`channels` itself.
        """
        ch = self.channels
        if supports is None:
            return ch
        require(len(supports) == self.n_ranks, "supports must give one mask per rank",
                PartitionError)
        peers: list[list[int]] = [[] for _ in ch.peers]
        indices: list[list[np.ndarray]] = [[] for _ in ch.peers]
        for r, (pr, ir) in enumerate(zip(ch.peers, ch.indices)):
            for peer, idx in zip(pr, ir):
                # Position j of the r->peer channel and of the peer->r
                # channel name the same global DOF (both are sorted by
                # global id), so this keep-mask is computed identically
                # on both sides.
                idx_peer = ch.indices[peer][ch.peers[peer].index(r)]
                keep = supports[r][idx] | supports[peer][idx_peer]
                if keep.any():
                    peers[r].append(peer)
                    indices[r].append(idx[keep])
        return ExchangePlan(peers, indices)


def build_rank_layout(
    assembler,
    parts: np.ndarray,
    n_ranks: int,
    dof_level: np.ndarray | None = None,
    backend: str = "matfree",
    use_fused: bool | None = None,
    threads: int | None = None,
) -> RankLayout:
    """Build the per-rank decomposition of a SEM system.

    Parameters
    ----------
    assembler:
        Object with ``element_dofs`` (``(n_elem, n_loc)``), ``n_dof``, the
        fully-summed diagonal mass ``M`` and ``kernel(ids)`` — acoustic
        :class:`~repro.sem.tensor.SemND`, elastic
        :class:`~repro.sem.tensor.ElasticSemND` or anisotropic
        :class:`~repro.sem.anisotropic.AnisotropicElasticSemND`, in any
        dimension each supports.
    parts:
        ``(n_elem,)`` rank id per element.
    dof_level:
        Optional per-DOF LTS level to carry onto ranks.
    backend:
        Accepts only ``"matfree"`` (the unassembled stiffness per rank).
    use_fused:
        Fused-C kernel selection (``None`` = auto-detect, as in
        :meth:`repro.sem.tensor.SemND.operator`).
    threads:
        OpenMP thread count of the rank-local fused stiffness (``None``
        serial, ``0`` auto-detect — see
        :func:`repro.sem.matfree.resolve_threads`).
    """
    require(backend == "matfree", f"unknown backend {backend!r} (only 'matfree')", PartitionError)
    require(hasattr(assembler, "kernel"),
            "build_rank_layout needs an assembler that builds its element kernel (kernel(ids))",
            PartitionError)
    element_dofs = np.asarray(assembler.element_dofs)
    n_elem, n_loc = element_dofs.shape
    n_dof = int(assembler.n_dof)
    parts = np.asarray(parts, dtype=np.int64)
    require(parts.shape == (n_elem,), "parts must be (n_elements,)", PartitionError)
    require(n_ranks >= 1, "n_ranks must be >= 1", PartitionError)
    require(
        parts.min() >= 0 and parts.max() < n_ranks,
        "part ids out of range",
        PartitionError,
    )

    # ``1/M`` of every rank-local product's rows, as the serial
    # operator's: the fully-summed diagonal mass, 0 on a Dirichlet row.
    inv_m = inverse_mass(assembler)

    # Per rank (module docstring): ids, local connectivity, owner mask
    # (no lower rank ``held`` the DOF), then its ``M^{-1} K``.
    gdofs: list[np.ndarray] = []
    owner_masks: list[np.ndarray] = []
    K_local: list = []
    present = np.zeros(n_dof, dtype=bool)
    held = np.zeros(n_dof, dtype=np.min_scalar_type(n_ranks))
    local_id = np.empty(n_dof, dtype=np.int32 if n_dof < 2**31 else np.int64)
    for r in range(n_ranks):
        owned = np.flatnonzero(parts == r)
        ed = element_dofs[owned]
        present[ed] = True
        ids = np.flatnonzero(present)
        present[ids] = False
        local_id[ids] = np.arange(len(ids), dtype=local_id.dtype)
        ld = local_id[ed]
        h = held[ids]
        owner_masks.append(h == 0)
        held[ids] = h + 1
        gdofs.append(ids)
        K_local.append(stiffness_share(
            assembler, inv_m[ids], owned, ld, use_fused=use_fused, threads=threads,
        ))

    # Halo plans: the shared (held > 1) ``(gdof, rank, position)``
    # triples sorted by DOF, then rank; entries ``s`` apart in a DOF's
    # group are pairs of sharers, taken both ways, and one sort of their
    # ``(src, dst, gdof)`` keys lays the channels out, ordered by DOF.
    at = [np.flatnonzero(held[g] > 1) for g in gdofs]
    g_all = np.concatenate([g[i] for g, i in zip(gdofs, at)])
    r_all = np.repeat(np.arange(n_ranks), [len(i) for i in at])
    by_dof = np.argsort(g_all * n_ranks + r_all)  # by DOF, then rank: unique keys
    g_all, r_all, at_all = g_all[by_dof], r_all[by_dof], np.concatenate(at)[by_dof]
    src, dst, dof, pos = [], [], [], []
    for s in range(1, int(held.max(initial=1))):
        same = np.flatnonzero(g_all[s:] == g_all[:-s])
        lo, hi, g = r_all[same], r_all[same + s], g_all[same]
        src += [lo, hi]
        dst += [hi, lo]
        dof += [g, g]
        pos += [at_all[same], at_all[same + s]]
    src, dst, dof, pos = (np.concatenate(x or [g_all[:0]]) for x in (src, dst, dof, pos))
    pair = src * n_ranks + dst
    by_pair = np.argsort(pair * n_dof + dof)
    pair, pos = pair[by_pair], pos[by_pair]
    bounds = np.flatnonzero(np.diff(pair, prepend=-1, append=-1))
    channels = ExchangePlan([[] for _ in range(n_ranks)], [[] for _ in range(n_ranks)])
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        r, peer = divmod(int(pair[lo]), n_ranks)
        channels.peers[r].append(peer)
        channels.indices[r].append(pos[lo:hi])

    levels_local: list[np.ndarray] = []
    if dof_level is not None:
        dof_level = np.asarray(dof_level, dtype=np.int64)
        require(dof_level.shape == (n_dof,), "dof_level must be (n_dof,)", PartitionError)
        levels_local = [dof_level[g] for g in gdofs]

    return RankLayout(
        n_dof_global=n_dof,
        gdofs=gdofs,
        owner=owner_masks,
        K_local=K_local,
        channels=channels,
        dof_level_local=levels_local,
    )
