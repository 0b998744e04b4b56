"""Unit tests for the character-level measures: exact, Levenshtein, Jaro,
Jaro-Winkler, Soundex, and the alignment measures."""

import pytest

from repro.similarity import (
    DamerauLevenshtein,
    ExactMatch,
    Jaro,
    JaroWinkler,
    Levenshtein,
    NeedlemanWunsch,
    NormalizedExactMatch,
    PrefixMatch,
    SmithWaterman,
    Soundex,
    SuffixMatch,
    damerau_levenshtein_distance,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    soundex_code,
)


class TestExactMatch:
    def test_equal_strings(self):
        assert ExactMatch()("apple", "apple") == 1.0

    def test_case_insensitive_by_default(self):
        assert ExactMatch()("Apple", "APPLE") == 1.0

    def test_case_sensitive_mode(self):
        assert ExactMatch(case_sensitive=True)("Apple", "apple") == 0.0

    def test_unequal(self):
        assert ExactMatch()("apple", "pear") == 0.0

    def test_none_scores_zero(self):
        assert ExactMatch()(None, "apple") == 0.0
        assert ExactMatch()("apple", None) == 0.0
        assert ExactMatch()(None, None) == 0.0

    def test_numeric_coercion(self):
        assert ExactMatch()(42, "42") == 1.0


class TestNormalizedExactMatch:
    def test_ignores_formatting(self):
        assert NormalizedExactMatch()("MN-12 345", "mn12345") == 1.0

    def test_different_content(self):
        assert NormalizedExactMatch()("MN-12", "MN-13") == 0.0

    def test_pure_punctuation_no_signal(self):
        assert NormalizedExactMatch()("---", "///") == 0.0


class TestPrefixSuffix:
    def test_prefix_full_match(self):
        assert PrefixMatch()("abcd", "abcd") == 1.0

    def test_prefix_partial(self):
        assert PrefixMatch()("abcx", "abcy") == pytest.approx(3 / 4)

    def test_prefix_shorter_denominator(self):
        assert PrefixMatch()("ab", "abcd") == 1.0

    def test_suffix_partial(self):
        assert SuffixMatch()("xcd", "ycd") == pytest.approx(2 / 3)

    def test_prefix_empty_vs_nonempty(self):
        assert PrefixMatch()("", "abc") == 0.0

    def test_prefix_both_empty(self):
        assert PrefixMatch()("", "") == 1.0


class TestLevenshteinDistance:
    @pytest.mark.parametrize(
        "x, y, expected",
        [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("", "abc", 3),
            ("abc", "", 3),
            ("abc", "abc", 0),
            ("a", "b", 1),
            ("gumbo", "gambol", 2),
        ],
    )
    def test_known_distances(self, x, y, expected):
        assert levenshtein_distance(x, y) == expected

    def test_symmetric(self):
        assert levenshtein_distance("abcdef", "azced") == levenshtein_distance(
            "azced", "abcdef"
        )

    def test_normalized_similarity(self):
        assert Levenshtein()("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_identity(self):
        assert Levenshtein()("same", "same") == 1.0

    def test_both_empty(self):
        assert Levenshtein()("", "") == 1.0


class TestDamerauLevenshtein:
    def test_transposition_is_one_edit(self):
        assert damerau_levenshtein_distance("abcd", "abdc") == 1
        assert levenshtein_distance("abcd", "abdc") == 2

    def test_osa_variant_semantics(self):
        # The restricted (optimal string alignment) variant cannot edit a
        # transposed pair again, so "ca" -> "abc" costs 3, not the
        # unrestricted Damerau's 2.
        assert damerau_levenshtein_distance("ca", "abc") == 3

    def test_similarity_at_least_levenshtein(self):
        x, y = "teh product", "the product"
        assert DamerauLevenshtein()(x, y) >= Levenshtein()(x, y)


class TestJaro:
    def test_textbook_martha(self):
        assert jaro_similarity("MARTHA", "MARHTA") == pytest.approx(0.944444, abs=1e-5)

    def test_textbook_dixon(self):
        assert jaro_similarity("DIXON", "DICKSONX") == pytest.approx(0.766667, abs=1e-5)

    def test_no_common_characters(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_identity(self):
        assert jaro_similarity("hello", "hello") == 1.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_measure_lowercases(self):
        assert Jaro()("MARTHA", "martha") == 1.0


class TestJaroWinkler:
    def test_textbook_martha(self):
        assert jaro_winkler_similarity("MARTHA", "MARHTA") == pytest.approx(
            0.961111, abs=1e-5
        )

    def test_prefix_boost_capped_at_four(self):
        # identical 6-char prefix must use only 4 chars of boost
        jaro = jaro_similarity("prefixab", "prefixcd")
        expected = jaro + 4 * 0.1 * (1 - jaro)
        assert jaro_winkler_similarity("prefixab", "prefixcd") == pytest.approx(expected)

    def test_at_least_jaro(self):
        assert jaro_winkler_similarity("DWAYNE", "DUANE") >= jaro_similarity(
            "DWAYNE", "DUANE"
        )

    def test_prefix_weight_is_part_of_identity(self):
        # Equal names, different scores: equality, hashing and cache keys
        # must tell the two apart, or a cache keyed on them mixes them.
        assert JaroWinkler(0.1)("jon", "john") != JaroWinkler(0.25)("jon", "john")
        assert JaroWinkler(0.1) != JaroWinkler(0.25)
        assert len({JaroWinkler(0.1), JaroWinkler(0.25)}) == 2
        assert JaroWinkler(0.1).cache_key() != JaroWinkler(0.25).cache_key()
        assert JaroWinkler(0.25) == JaroWinkler(0.25)
        assert hash(JaroWinkler(0.25)) == hash(JaroWinkler(0.25))
        assert Jaro().cache_key() == ("Jaro", "jaro")

    def test_invalid_prefix_weight_rejected(self):
        with pytest.raises(ValueError):
            JaroWinkler(prefix_weight=0.5)
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.3)


class TestSoundex:
    @pytest.mark.parametrize(
        "word, code",
        [
            ("Robert", "R163"),
            ("Rupert", "R163"),
            ("Ashcraft", "A261"),
            ("Ashcroft", "A261"),
            ("Tymczak", "T522"),
            ("Pfister", "P236"),
            ("Honeyman", "H555"),
        ],
    )
    def test_classic_codes(self, word, code):
        assert soundex_code(word) == code

    def test_non_alpha_is_empty_code(self):
        assert soundex_code("1234") == ""

    def test_measure_equal_sound(self):
        assert Soundex()("Robert", "Rupert") == 1.0

    def test_measure_different_sound(self):
        assert Soundex()("Robert", "Xavier") == 0.0

    def test_multi_token_overlap(self):
        # One shared surname code out of two codes per side.
        score = Soundex()("robert smith", "rupert smyth")
        assert score == 1.0  # both tokens map to equal codes

    def test_partial_token_overlap(self):
        score = Soundex()("robert smith", "robert jones")
        assert 0.0 < score < 1.0


class TestAlignment:
    def test_nw_identity(self):
        assert NeedlemanWunsch()("match", "match") == 1.0

    def test_nw_disjoint_clips_to_zero(self):
        assert NeedlemanWunsch()("aaaa", "bbbb") == 0.0

    def test_sw_substring_is_perfect(self):
        assert SmithWaterman()("core", "hardcore") == 1.0

    def test_sw_range(self):
        score = SmithWaterman()("abcdx", "abcdy")
        assert 0.0 < score <= 1.0

    def test_sw_empty(self):
        assert SmithWaterman()("", "abc") == 0.0
        assert SmithWaterman()("", "") == 1.0
