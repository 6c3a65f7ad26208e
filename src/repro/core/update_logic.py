"""Gate-level model of the H-LATCH taint-update chain (Figure 12).

When a precise taint tag is written, H-LATCH recomputes the coarser
bits combinationally:

1. a decoder selects the updated tag's position within its coarse unit
   from the memory operand's offset bits;
2. the unit's pre-update tag vector is masked to *exclude* that
   position;
3. the masked vector is reduced and combined with the new tag value,
   producing the updated coarse bit — set iff the new tag is tainted or
   any *other* tag in the unit still is (so the coarse bit clears
   exactly when the last tag in the unit clears);
4. the operation chains: the domain bits of one CTT word feed the
   page-level TLB bit the same way.

(The paper phrases step 3 as an AND over active-low tags; the OR over
active-high tags below is the same network.)  :class:`UpdateChain`
evaluates the logic explicitly — tag vectors in, bit out — so its
equivalence with the behavioural update path of
:class:`repro.core.ctc.CoarseTaintCache` can be tested, and its gate
count backs :mod:`repro.hw.area`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.domains import DOMAINS_PER_WORD


def decode_one_hot(offset_bits: int, width: int) -> List[bool]:
    """The decoder: a one-hot select of ``width`` lines."""
    if not 0 <= offset_bits < width:
        raise ValueError(f"offset {offset_bits} out of range 0..{width - 1}")
    return [index == offset_bits for index in range(width)]


def masked_or_reduce(tags: Sequence[bool], select: Sequence[bool]) -> bool:
    """OR-reduce of the tag vector with the selected position excluded."""
    if len(tags) != len(select):
        raise ValueError("tags and select widths differ")
    return any(bit and not sel for bit, sel in zip(tags, select))


@dataclass
class UpdateResult:
    """Outputs of one chained update evaluation."""

    #: The coarse bit covering the updated unit, post-update.
    coarse_bit: bool
    #: The unit's tag vector, post-update.
    new_tags: tuple
    #: The next-level (page) bit, post-update.
    page_bit: bool


class UpdateChain:
    """The combinational update network for one coarse unit.

    At the first level the "unit" is one taint domain and the tag
    vector holds its precise tags (e.g. 16 word tags for a 64-byte
    domain); at the chained level the unit is one CTT word and the
    vector holds its 32 domain bits.

    Args:
        width: tags per unit.
    """

    def __init__(self, width: int = DOMAINS_PER_WORD) -> None:
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width

    def update(
        self,
        tags: Sequence[bool],
        offset: int,
        new_tag_tainted: bool,
        sibling_units_or: bool = False,
    ) -> UpdateResult:
        """Evaluate the network for one tag update.

        Args:
            tags: the unit's pre-update tag vector.
            offset: position of the tag being written.
            new_tag_tainted: the freshly computed tag's taint status.
            sibling_units_or: OR of the coarse bits of the *other* units
                under the same next-level bit (for the chained page
                level; 0 when this is the page's only word).
        """
        tags = list(tags)
        if len(tags) != self.width:
            raise ValueError(f"tag vector must be {self.width} bits")
        select = decode_one_hot(offset, self.width)
        others = masked_or_reduce(tags, select)
        coarse_bit = new_tag_tainted or others
        new_tags = tuple(
            new_tag_tainted if sel else bit for bit, sel in zip(tags, select)
        )
        page_bit = coarse_bit or sibling_units_or
        return UpdateResult(
            coarse_bit=coarse_bit, new_tags=new_tags, page_bit=page_bit
        )
