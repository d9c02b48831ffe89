"""A SQL front-end for the paper's query templates (Figures 7 and 8).

The paper specifies its workload in SQL::

    SELECT * FROM A, B [RANGE v1] [SLICE v2]
    WHERE A.KEY = B.KEY AND A.F1 > 10 AND B.F0 <= 5

    SELECT SUM(A.FIELD1) FROM A [RANGE v1] [SLICE v2]
    WHERE A.F2 >= 7 GROUP BY A.KEY

:func:`parse_query` turns such statements into the corresponding
:mod:`repro.core.query` objects:

* one stream, ``SELECT *`` → :class:`SelectionQuery`;
* one stream, an aggregate → :class:`AggregationQuery` (``RANGE/SLICE``
  time windows or ``SESSION v`` gap windows);
* two streams, ``SELECT *`` → :class:`JoinQuery` (requires the
  ``A.KEY = B.KEY`` equi-join conjunct);
* two or more streams with an aggregate → :class:`ComplexQuery`
  (§4.7); an optional ``AGGREGATE RANGE x [SLICE y]`` clause sets the
  aggregation window, defaulting to the join window.

Field references: ``A.FIELD1 .. A.FIELD5`` use the paper's 1-based
naming (``FIELD1`` is ``fields[0]``); the shorthand ``A.F0 .. A.F4`` is
0-based.  Window values are seconds by default; ``500ms`` is accepted.
Predicates must be a conjunction (``AND``) of field-vs-constant
comparisons, matching the generated workload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    Comparison,
    ComplexQuery,
    FieldPredicate,
    Frozen,
    JoinQuery,
    Predicate,
    Query,
    SelectionQuery,
    TruePredicate,
    WindowSpec,
)


class SqlError(ValueError):
    """Raised for statements outside the supported template grammar."""


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:ms|s)?)"
    r"|(?P<op><=|>=|==|=|<|>)"
    r"|(?P<punct>[(),*.])"
    r"|(?P<word>[A-Za-z_][A-Za-z_0-9]*)"
    r")"
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "RANGE", "SLICE",
    "SESSION", "KEY", "AGGREGATE",
}

_AGG_FUNCTIONS = {
    "SUM": AggregationKind.SUM,
    "COUNT": AggregationKind.COUNT,
    "MIN": AggregationKind.MIN,
    "MAX": AggregationKind.MAX,
    "AVG": AggregationKind.AVG,
}

_OPS = {
    "=": Comparison.EQ,
    "==": Comparison.EQ,
    "<": Comparison.LT,
    ">": Comparison.GT,
    "<=": Comparison.LE,
    ">=": Comparison.GE,
}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | op | punct | word
    text: str
    position: int


def _tokenize(statement: str) -> List[_Token]:
    tokens = []
    position = 0
    while position < len(statement):
        match = _TOKEN_RE.match(statement, position)
        if match is None or match.end() == position:
            remainder = statement[position:].strip()
            if not remainder:
                break
            raise SqlError(
                f"cannot tokenize {remainder[:20]!r} at offset {position}"
            )
        for kind in ("number", "op", "punct", "word"):
            text = match.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, match.start(kind)))
                break
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, statement: str) -> None:
        self.statement = statement
        self.tokens = _tokenize(statement)
        self.index = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlError(f"unexpected end of statement: {self.statement!r}")
        self.index += 1
        return token

    def _accept_word(self, word: str) -> bool:
        token = self._peek()
        if token and token.kind == "word" and token.text.upper() == word:
            self.index += 1
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            token = self._peek()
            found = token.text if token else "end of statement"
            raise SqlError(f"expected {word}, found {found!r}")

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token and token.kind == "punct" and token.text == punct:
            self.index += 1
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        if not self._accept_punct(punct):
            token = self._peek()
            found = token.text if token else "end of statement"
            raise SqlError(f"expected {punct!r}, found {found!r}")

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Query:
        self._expect_word("SELECT")
        aggregate = self._parse_select_list()
        self._expect_word("FROM")
        streams = self._parse_stream_list()
        window = self._parse_window(allow_session=len(streams) == 1)
        agg_window = self._parse_aggregate_window()
        predicates, key_joined = self._parse_where(streams)
        group_by = self._parse_group_by(streams)
        if self._peek() is not None:
            raise SqlError(f"trailing input from {self._peek().text!r}")
        return self._build(
            streams, aggregate, window, agg_window, predicates, key_joined,
            group_by,
        )

    def _parse_select_list(
        self,
    ) -> Optional[Tuple[AggregationKind, Optional[Tuple[str, int]]]]:
        """``*`` → None; ``SUM(A.FIELD1)`` → (kind, field ref)."""
        if self._accept_punct("*"):
            return None
        token = self._next()
        if token.kind != "word" or token.text.upper() not in _AGG_FUNCTIONS:
            raise SqlError(
                f"expected * or an aggregate function, found {token.text!r}"
            )
        kind = _AGG_FUNCTIONS[token.text.upper()]
        self._expect_punct("(")
        if self._accept_punct("*"):
            if kind is not AggregationKind.COUNT:
                raise SqlError(f"{kind.value.upper()}(*) is not supported")
            field_ref = None
        else:
            field_ref = self._parse_field_ref()
        self._expect_punct(")")
        return (kind, field_ref)

    def _parse_stream_list(self) -> List[str]:
        streams = [self._parse_stream_name()]
        while self._accept_punct(","):
            streams.append(self._parse_stream_name())
        if len(set(streams)) != len(streams):
            raise SqlError(f"duplicate stream in FROM: {streams}")
        return streams

    def _parse_stream_name(self) -> str:
        token = self._next()
        if token.kind != "word" or token.text.upper() in _KEYWORDS:
            raise SqlError(f"expected a stream name, found {token.text!r}")
        return token.text

    def _parse_window(self, allow_session: bool) -> Optional[WindowSpec]:
        if self._accept_word("RANGE"):
            length_ms = self._parse_duration()
            slide_ms = length_ms
            if self._accept_word("SLICE"):
                slide_ms = self._parse_duration()
            return WindowSpec.sliding(length_ms, slide_ms)
        if self._accept_word("SESSION"):
            if not allow_session:
                raise SqlError("SESSION windows apply to one-stream queries")
            return WindowSpec.session(self._parse_duration())
        return None

    def _parse_aggregate_window(self) -> Optional[WindowSpec]:
        if self._accept_word("AGGREGATE"):
            window = self._parse_window(allow_session=False)
            if window is None:
                raise SqlError("AGGREGATE must be followed by RANGE [SLICE]")
            return window
        return None

    def _parse_duration(self) -> int:
        token = self._next()
        if token.kind != "number":
            raise SqlError(f"expected a duration, found {token.text!r}")
        text = token.text
        if text.endswith("ms"):
            return int(float(text[:-2]))
        if text.endswith("s"):
            return int(float(text[:-1]) * 1_000)
        return int(float(text) * 1_000)  # bare numbers are seconds

    def _parse_field_ref(self) -> Tuple[str, int]:
        """``A.FIELD1`` (1-based) or ``A.F0`` (0-based) → (stream, index)."""
        stream = self._parse_stream_name()
        self._expect_punct(".")
        token = self._next()
        name = token.text.upper()
        match = re.fullmatch(r"FIELD(\d+)", name)
        if match:
            index = int(match.group(1)) - 1
        else:
            match = re.fullmatch(r"F(\d+)", name)
            if not match:
                raise SqlError(
                    f"expected FIELDn or Fn after {stream}., found {token.text!r}"
                )
            index = int(match.group(1))
        if not 0 <= index < 5:
            raise SqlError(f"field index out of range in {stream}.{token.text}")
        return stream, index

    def _parse_where(
        self, streams: List[str]
    ) -> Tuple[Dict[str, List[FieldPredicate]], bool]:
        """Conjunctive predicates per stream + whether KEYs are joined."""
        predicates: Dict[str, List[FieldPredicate]] = {s: [] for s in streams}
        key_joined = False
        if not self._accept_word("WHERE"):
            return predicates, key_joined
        while True:
            key_conjunct = self._try_parse_key_equality(streams)
            if key_conjunct:
                key_joined = True
            else:
                stream, field_index = self._parse_field_ref()
                if stream not in predicates:
                    raise SqlError(
                        f"stream {stream!r} in WHERE is not in FROM"
                    )
                op_token = self._next()
                if op_token.kind != "op":
                    raise SqlError(
                        f"expected a comparison, found {op_token.text!r}"
                    )
                constant_token = self._next()
                if constant_token.kind != "number":
                    raise SqlError(
                        f"expected a numeric constant, found "
                        f"{constant_token.text!r}"
                    )
                predicates[stream].append(
                    FieldPredicate(
                        field_index,
                        _OPS[op_token.text],
                        float(constant_token.text)
                        if "." in constant_token.text
                        else int(constant_token.text),
                    )
                )
            if not self._accept_word("AND"):
                break
        return predicates, key_joined

    def _try_parse_key_equality(self, streams: List[str]) -> bool:
        """``X.KEY = Y.KEY`` — consumed if present at the cursor."""
        saved = self.index
        try:
            left = self._parse_stream_name()
            self._expect_punct(".")
            if not self._accept_word("KEY"):
                raise SqlError("not a key reference")
            op = self._next()
            if op.kind != "op" or _OPS.get(op.text) is not Comparison.EQ:
                raise SqlError("keys must be compared with =")
            right = self._parse_stream_name()
            self._expect_punct(".")
            self._expect_word("KEY")
        except SqlError:
            self.index = saved
            return False
        if left not in streams or right not in streams:
            raise SqlError(
                f"key join references unknown stream: {left}.KEY = {right}.KEY"
            )
        if left == right:
            raise SqlError("a key join needs two distinct streams")
        return True

    def _parse_group_by(self, streams: List[str]) -> bool:
        if not self._accept_word("GROUP"):
            return False
        self._expect_word("BY")
        # Accept both `GROUP BY A.KEY` and plain `GROUP BY KEY`.
        saved = self.index
        token = self._next()
        if token.kind == "word" and token.text.upper() == "KEY":
            return True
        self.index = saved
        stream = self._parse_stream_name()
        if stream not in streams:
            raise SqlError(f"GROUP BY references unknown stream {stream!r}")
        self._expect_punct(".")
        self._expect_word("KEY")
        return True

    # -- assembly -------------------------------------------------------------

    def _build(
        self,
        streams: List[str],
        aggregate,
        window: Optional[WindowSpec],
        agg_window: Optional[WindowSpec],
        predicates: Dict[str, List[FieldPredicate]],
        key_joined: bool,
        group_by: bool,
    ) -> Query:
        def combined(stream: str) -> Predicate:
            conjuncts = predicates[stream]
            if not conjuncts:
                return TruePredicate()
            if len(conjuncts) == 1:
                return conjuncts[0]
            return ConjunctionPredicate(tuple(conjuncts))

        if len(streams) == 1:
            stream = streams[0]
            if aggregate is None:
                if window is not None:
                    raise SqlError(
                        "SELECT * over one stream is a pure selection; "
                        "windows need an aggregate or a join"
                    )
                return SelectionQuery(stream=stream, predicate=combined(stream))
            if window is None:
                raise SqlError("aggregation queries need RANGE or SESSION")
            if not group_by:
                raise SqlError("aggregation queries need GROUP BY KEY")
            kind, field_ref = aggregate
            return AggregationQuery(
                stream=stream,
                predicate=combined(stream),
                window_spec=window,
                aggregation=self._aggregation_spec(kind, field_ref, streams),
            )

        # Multi-stream: join (SELECT *) or complex (aggregate).
        if not key_joined:
            raise SqlError("multi-stream queries need A.KEY = B.KEY")
        if window is None:
            raise SqlError("join queries need a RANGE window")
        if aggregate is None:
            if len(streams) != 2:
                raise SqlError(
                    "SELECT * joins take exactly two streams; use an "
                    "aggregate for deeper pipelines (§4.7)"
                )
            return JoinQuery(
                left_stream=streams[0],
                right_stream=streams[1],
                left_predicate=combined(streams[0]),
                right_predicate=combined(streams[1]),
                window_spec=window,
            )
        if not group_by:
            raise SqlError("aggregation queries need GROUP BY KEY")
        kind, field_ref = aggregate
        return ComplexQuery(
            join_streams=tuple(streams),
            predicates=tuple(combined(stream) for stream in streams),
            join_window=window,
            aggregation_window=agg_window or window,
            aggregation=self._aggregation_spec(kind, field_ref, streams),
        )

    @staticmethod
    def _aggregation_spec(
        kind: AggregationKind,
        field_ref: Optional[Tuple[str, int]],
        streams: List[str],
    ) -> AggregationSpec:
        if field_ref is None:
            return AggregationSpec(AggregationKind.COUNT)
        stream, index = field_ref
        if stream != streams[0]:
            raise SqlError(
                f"aggregates read the leading stream {streams[0]!r} "
                f"(JoinedTuple field semantics), found {stream!r}"
            )
        return AggregationSpec(kind, field_index=index)


@dataclass(frozen=True)
class ConjunctionPredicate(Predicate, Frozen):
    """AND of several field predicates (hashable, so dedup still works)."""

    conjuncts: Tuple[FieldPredicate, ...]

    def evaluate(self, value) -> bool:
        for conjunct in self.conjuncts:
            if not conjunct.evaluate(value):
                return False
        return True

    def __str__(self) -> str:
        return " AND ".join(str(conjunct) for conjunct in self.conjuncts)


def parse_query(statement: str) -> Query:
    """Parse one template-grammar SQL statement into a query object.

    Raises :class:`SqlError` with a human-readable message for anything
    outside the supported grammar.
    """
    if not statement or not statement.strip():
        raise SqlError("empty statement")
    return _Parser(statement).parse()
